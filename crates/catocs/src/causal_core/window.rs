//! Everything a member knows of each sender's messages, one window a
//! sender: up to its `delivered` cursor, what it delivered (its own sends
//! count) that the group is not yet known to have, kept for retransmission
//! — the §5 "buffered until stable" cost; above it, a slot for each message
//! known of but not delivered — the §5 receive-side cost.

use super::MAX_CHASE_AHEAD;
use crate::group::{MsgId, NACK_TIMEOUT};
use crate::wire::DataMsg;
use clocks::vector::VectorClock;
use simnet::time::SimTime;
use std::collections::VecDeque;
use std::ops::RangeInclusive;

/// A message known missing here and chased via NACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chase {
    /// Who referenced it: NACKed first (the paper's §5: "the receiver of
    /// a new message assumes it can get copies of the causally referenced
    /// messages from the sender of the new message"), and the first of
    /// the members a NACK round asks for it.
    pub(crate) referenced_by: usize,
    /// The first NACK round it is due in: a round at or after this instant
    /// asks a few of its holders for it ([`SimTime::ZERO`]: the next round).
    pub(crate) due: SimTime,
    /// How many NACK rounds have asked for it: the cursor into the
    /// members a round asks, so each round asks the next few.
    pub(crate) round: u32,
}

impl Chase {
    /// A chase first learned of via `referenced_by`, due at `due`, asked
    /// by no round yet.
    pub(crate) fn new(referenced_by: usize, due: SimTime) -> Self {
        Chase {
            referenced_by,
            due,
            round: 0,
        }
    }
}

/// What this member knows of one message it has not delivered.
#[derive(Debug)]
pub(crate) enum Slot<P> {
    Unknown,
    Chased(Chase),
    /// A delta-stamped copy ahead of its decode base (cbcast), parked
    /// until the chain reaches it; chased too if a full copy was asked for.
    Parked(Box<DataMsg<P>>, Option<Chase>),
    /// In the holdback queue, which owns the message; `chased`: it arrived
    /// after being chased, so what waited on it waited on a repair.
    Held {
        chased: bool,
    },
}

impl<P> Slot<P> {
    fn known(&self) -> bool {
        !matches!(self, Slot::Unknown)
    }

    fn chase(&self) -> Option<Chase> {
        match self {
            Slot::Chased(c) | Slot::Parked(_, Some(c)) => Some(*c),
            _ => None,
        }
    }
}

/// One sender's window: seqs `(stable, delivered]` retained, then slot `i`
/// for seq `delivered + 1 + i`, never ending in an unknown one.
#[derive(Debug)]
struct Window<P> {
    retained: VecDeque<DataMsg<P>>,
    ahead: VecDeque<Slot<P>>,
    delivered: u64,
    /// The registration frontier, kept at the first unknown slot (any lower
    /// bound is correct): a gap walk starts there, testing an id only once.
    frontier: usize,
}

impl<P> Window<P> {
    /// Trims trailing unknown slots (freeing the buffer once none is left:
    /// an idle sender keeps nothing) and moves the frontier up to the first
    /// unknown one; checks, under debug assertions, that none is below it.
    fn settle(&mut self) {
        while self.ahead.back().is_some_and(|s| !s.known()) {
            self.ahead.pop_back();
        }
        if self.ahead.is_empty() {
            self.ahead = VecDeque::new();
        }
        self.frontier = self.frontier.min(self.ahead.len());
        while self.ahead.get(self.frontier).is_some_and(Slot::known) {
            self.frontier += 1;
        }
        debug_assert!(self.ahead.iter().take(self.frontier).all(Slot::known));
    }
}

/// Every window of a group of `n`. Only deliveries and own sends are
/// retained, and causal delivery is FIFO per sender, so a retained part
/// is contiguous: a lookup indexes it, a delivery is pushed at its back
/// (taking its slot), and what goes stable is popped from its front.
#[derive(Debug)]
pub(crate) struct SenderWindows<P> {
    windows: Vec<Window<P>>,
    /// Senders with a retained message, ascending: all a reclaim visits.
    retaining: Vec<usize>,
    /// Senders that may have a chased slot, ascending: all a NACK round
    /// visits (it drops those it finds none in).
    chasing: Vec<usize>,
    /// Messages retained, and copies parked, over all windows.
    len: usize,
    parked: usize,
}

/// Puts `s` in the ascending list `list`.
fn enlist(list: &mut Vec<usize>, s: usize) {
    if let Err(at) = list.binary_search(&s) {
        list.insert(at, s);
    }
}

impl<P> SenderWindows<P> {
    /// Empty windows for a group of `n`.
    pub(crate) fn new(n: usize) -> Self {
        let window = || Window {
            retained: VecDeque::new(),
            ahead: VecDeque::new(),
            delivered: 0,
            frontier: 0,
        };
        SenderWindows {
            windows: (0..n).map(|_| window()).collect(),
            retaining: Vec::new(),
            chasing: Vec::new(),
            len: 0,
            parked: 0,
        }
    }

    /// Number of messages retained.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of copies parked.
    pub(crate) fn parked_len(&self) -> usize {
        self.parked
    }

    /// The retained message `id`, if any, to update in place. Any id — a
    /// NACK names whatever it likes — is looked up without panicking.
    pub(crate) fn get_mut(&mut self, id: MsgId) -> Option<&mut DataMsg<P>> {
        let w = self.windows.get_mut(id.sender)?;
        let front = w.delivered + 1 - w.retained.len() as u64;
        w.retained
            .get_mut(usize::try_from(id.seq.checked_sub(front)?).ok()?)
    }

    /// Delivers and retains `msg`, its sender's next message; its slot goes.
    pub(crate) fn push(&mut self, msg: DataMsg<P>) {
        let s = msg.id.sender;
        let w = &mut self.windows[s];
        debug_assert_eq!(w.delivered + 1, msg.id.seq, "{} out of order", msg.id);
        w.delivered += 1;
        if let Some(slot) = w.ahead.pop_front() {
            debug_assert!(!matches!(slot, Slot::Parked(..)), "{} parked", msg.id);
            w.frontier = w.frontier.saturating_sub(1);
            w.settle();
        }
        if w.retained.is_empty() {
            enlist(&mut self.retaining, s);
        }
        w.retained.push_back(msg);
        self.len += 1;
    }

    /// Every retained message, by sender and then sequence number.
    pub(crate) fn values_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut DataMsg<P>> {
        self.windows.iter_mut().flat_map(|w| w.retained.iter_mut())
    }

    /// Drops every retained message of sender `s` at or below `stable[s]`;
    /// returns how many went.
    pub(crate) fn reclaim(&mut self, stable: &VectorClock) -> usize {
        let before = self.len;
        let (windows, len) = (&mut self.windows, &mut self.len);
        self.retaining.retain(|&s| {
            let retained = &mut windows[s].retained;
            while retained.front().is_some_and(|m| m.id.seq <= stable.get(s)) {
                retained.pop_front();
                *len -= 1;
            }
            !retained.is_empty()
        });
        before - self.len
    }

    /// What is known of undelivered message `id`; `None` is unknown.
    pub(crate) fn slot(&self, id: MsgId) -> Option<&Slot<P>> {
        let w = self.windows.get(id.sender)?;
        let i = usize::try_from(id.seq.checked_sub(w.delivered + 1)?).ok()?;
        w.ahead.get(i).filter(|s| s.known())
    }

    /// Replaces slot `i` of sender `s` by what `f` makes of it, keeping the
    /// counts and the frontier; the caller settles the window.
    fn put(&mut self, s: usize, i: usize, f: impl FnOnce(Slot<P>) -> Slot<P>) {
        let w = &mut self.windows[s];
        let old = std::mem::replace(&mut w.ahead[i], Slot::Unknown);
        self.parked -= usize::from(matches!(old, Slot::Parked(..)));
        let new = f(old);
        self.parked += usize::from(matches!(new, Slot::Parked(..)));
        if new.chase().is_some() {
            enlist(&mut self.chasing, s);
        }
        if !new.known() {
            w.frontier = w.frontier.min(i);
        }
        w.ahead[i] = new;
    }

    /// Opens slots up to `id` and has `f` remake its slot, unless `id` is
    /// delivered, of no member or [`MAX_CHASE_AHEAD`] past; returns whether.
    fn set(&mut self, id: MsgId, f: impl FnOnce(Slot<P>) -> Slot<P>) -> bool {
        let Some(w) = self.windows.get_mut(id.sender) else {
            return false;
        };
        let ahead = id.seq.saturating_sub(w.delivered);
        if ahead == 0 || ahead > MAX_CHASE_AHEAD {
            return false;
        }
        if ahead > w.ahead.len() as u64 {
            w.ahead.resize_with(ahead as usize, || Slot::Unknown);
        }
        self.put(id.sender, ahead as usize - 1, f);
        self.windows[id.sender].settle();
        true
    }

    /// Replaces each slot of `seqs` of `sender` that exists by what `f`
    /// makes of it and its seq.
    fn edit(
        &mut self,
        s: usize,
        seqs: RangeInclusive<u64>,
        mut f: impl FnMut(u64, Slot<P>) -> Slot<P>,
    ) {
        let w = &self.windows[s];
        let base = w.delivered + 1;
        let len = w.ahead.len() as u64;
        let at = |seq: u64| seq.saturating_sub(base).min(len) as usize;
        for i in at(*seqs.start())..at(seqs.end().saturating_add(1)) {
            self.put(s, i, |old| f(base + i as u64, old));
        }
        self.windows[s].settle();
    }

    /// Chases `id`, first learned of via `via`, from the next tick's NACK
    /// round — unless it is chased already or held (a parked copy is not).
    pub(crate) fn chase(&mut self, id: MsgId, via: usize) {
        let chase = Chase::new(via, SimTime::ZERO);
        self.set(id, |old| match old {
            Slot::Unknown => Slot::Chased(chase),
            Slot::Parked(copy, None) => Slot::Parked(copy, Some(chase)),
            known => known,
        });
    }

    /// Chases every unknown id of `seqs` of sender `k`, from the frontier on
    /// (a gap is named again and again), each joining `want` until `cap`.
    /// An id that joins `want` is chased as `chase` says; one past the cap
    /// was asked of nobody, so it is due in the next NACK round.
    pub(crate) fn chase_range(
        &mut self,
        k: usize,
        seqs: RangeInclusive<u64>,
        chase: Chase,
        want: &mut Vec<MsgId>,
        cap: usize,
    ) {
        let Some(w) = self.windows.get(k) else {
            return;
        };
        let lo = (*seqs.start()).max(w.delivered + 1 + w.frontier as u64);
        for seq in lo..=*seqs.end() {
            let id = MsgId { sender: k, seq };
            let asked = self.slot(id).is_none() && want.len() < cap;
            let chase = if asked {
                chase
            } else {
                Chase {
                    due: SimTime::ZERO,
                    ..chase
                }
            };
            let opened = self.set(id, |old| match old {
                Slot::Unknown => Slot::Chased(chase),
                known => known,
            });
            if !opened {
                break;
            }
            if asked {
                want.push(id);
            }
        }
    }

    /// Marks `id` held, remembering whether it was chased.
    pub(crate) fn hold(&mut self, id: MsgId) {
        self.set(id, |old| {
            debug_assert!(matches!(old, Slot::Unknown | Slot::Chased(_)), "{id} held");
            let chased = old.chase().is_some();
            Slot::Held { chased }
        });
    }

    /// Parks `msg` in place of any copy parked for it before; its chase
    /// stays.
    pub(crate) fn park(&mut self, msg: DataMsg<P>) {
        let id = msg.id;
        self.set(id, |old| {
            debug_assert!(!matches!(old, Slot::Held { .. }), "{id} parked while held");
            Slot::Parked(Box::new(msg), old.chase())
        });
    }

    /// Takes every copy parked for `seqs` of `sender`, ascending; chases stay.
    pub(crate) fn unpark(&mut self, sender: usize, seqs: RangeInclusive<u64>) -> Vec<DataMsg<P>> {
        let mut copies = Vec::new();
        self.edit(sender, seqs, |_, old| match old {
            Slot::Parked(copy, chase) => {
                copies.push(*copy);
                chase.map_or(Slot::Unknown, Slot::Chased)
            }
            other => other,
        });
        copies
    }

    /// Forgets what `sender`, removed at flush cut `cut`, sent beyond it: no
    /// chase, and the held ids (returned) leave the holdback. Parked stays.
    pub(crate) fn truncate(&mut self, sender: usize, cut: u64) -> Vec<u64> {
        let mut held = Vec::new();
        self.edit(
            sender,
            cut.saturating_add(1)..=u64::MAX,
            |seq, old| match old {
                Slot::Held { .. } => {
                    held.push(seq);
                    Slot::Unknown
                }
                Slot::Parked(copy, _) => Slot::Parked(copy, None),
                _ => Slot::Unknown,
            },
        );
        held
    }

    /// The chased ids due for a NACK at `now`, at most `cap`, by sender and
    /// then sequence number, each with its chase as this round finds it
    /// (`round`: how many rounds asked before); each is next due
    /// `NACK_TIMEOUT` later, one round on.
    pub(crate) fn due(&mut self, now: SimTime, cap: usize) -> Vec<(MsgId, Chase)> {
        let mut batch = Vec::new();
        let windows = &mut self.windows;
        self.chasing.retain(|&s| {
            let w = &mut windows[s];
            let (mut chasing, delivered) = (false, w.delivered);
            for (i, slot) in w.ahead.iter_mut().enumerate() {
                if let Slot::Chased(c) | Slot::Parked(_, Some(c)) = slot {
                    chasing = true;
                    if batch.len() == cap {
                        break;
                    }
                    if now >= c.due {
                        let seq = delivered + 1 + i as u64;
                        batch.push((MsgId { sender: s, seq }, *c));
                        c.due = now + NACK_TIMEOUT;
                        c.round += 1;
                    }
                }
            }
            chasing
        });
        batch
    }
}

#[cfg(test)]
impl<P> SenderWindows<P> {
    /// Chases `id` with `chase` if it is unknown, id by id: no frontier.
    pub(crate) fn chase_as(&mut self, id: MsgId, chase: Chase) {
        self.set(id, |old| {
            if old.known() {
                old
            } else {
                Slot::Chased(chase)
            }
        });
    }

    /// Slots open above the senders' delivered counts, known or not.
    pub(crate) fn open_slots(&self) -> usize {
        self.windows.iter().map(|w| w.ahead.len()).sum()
    }

    /// Whether `id` is in the holdback queue.
    pub(crate) fn is_held(&self, id: MsgId) -> bool {
        matches!(self.slot(id), Some(Slot::Held { .. }))
    }

    /// Whether held message `id` arrived after being chased.
    pub(crate) fn arrived_chased(&self, id: MsgId) -> bool {
        matches!(self.slot(id), Some(Slot::Held { chased: true }))
    }

    /// The retained message `id`, if any.
    pub(crate) fn get(&self, id: MsgId) -> Option<&DataMsg<P>> {
        let w = self.windows.get(id.sender)?;
        let front = w.delivered + 1 - w.retained.len() as u64;
        w.retained
            .get(usize::try_from(id.seq.checked_sub(front)?).ok()?)
    }

    /// Every chased id with its chase, by sender and then sequence number.
    pub(crate) fn chases(&self) -> Vec<(MsgId, Chase)> {
        let mut all = Vec::new();
        for &s in &self.chasing {
            let w = &self.windows[s];
            for (i, slot) in w.ahead.iter().enumerate() {
                if let Some(c) = slot.chase() {
                    all.push((
                        MsgId {
                            sender: s,
                            seq: w.delivered + 1 + i as u64,
                        },
                        c,
                    ));
                }
            }
        }
        all
    }

    /// Sender `k`'s registration frontier, as a seq: every id of `k` up to
    /// it is delivered or known.
    pub(crate) fn frontier(&self, k: usize) -> u64 {
        let w = &self.windows[k];
        w.delivered + w.frontier as u64
    }

    /// Lowers every frontier to what was delivered — the conservative
    /// frontier a gap walk is always right to start from.
    pub(crate) fn lower_frontiers(&mut self) {
        for w in &mut self.windows {
            w.frontier = 0;
        }
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

    /// What the model keeps for an undelivered id; its payload stands
    /// for a parked copy.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Model {
        Chased(Chase),
        Parked(u32, Option<Chase>),
        Held(bool),
    }

    fn seen(slot: &Slot<u32>) -> Model {
        match slot {
            Slot::Chased(c) => Model::Chased(*c),
            Slot::Parked(m, c) => Model::Parked(m.payload, *c),
            Slot::Held { chased } => Model::Held(*chased),
            Slot::Unknown => unreachable!("`slot` reports unknown as none"),
        }
    }

    fn chase_of(m: &Model) -> Option<Chase> {
        match m {
            Model::Chased(c) | Model::Parked(_, Some(c)) => Some(*c),
            _ => None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The windows against id-keyed maps: one of retained messages,
        /// one of what is known of each undelivered id. Each step delivers
        /// a sender's next message, reclaims at a random frontier (below,
        /// at or past what was delivered, as after an eviction), chases an
        /// id or a range of them, holds, parks or unparks an id, drops a
        /// range's parked copies, cuts a sender off, or takes a NACK round,
        /// which hands back each due id with its chase as it found it and
        /// moves that chase's round cursor on by one.
        /// Then every lookup, both counts, the chases (cursors included) in
        /// order and the walk
        /// of the retained in both directions agree, for ids retained,
        /// reclaimed, undelivered, unknown and of no member — and the
        /// frontier's invariant holds (`debug_check`, under debug
        /// assertions).
        #[test]
        fn the_windows_match_an_ordered_map_model(
            script in collection::vec(
                (0u8..10, 0usize..N, 0u64..10, 0u64..6, collection::vec(0u64..12, N)),
                0..80,
            ),
        ) {
            let mut windows = SenderWindows::new(N);
            let mut retained: BTreeMap<MsgId, DataMsg<u32>> = BTreeMap::new();
            let mut ahead: BTreeMap<MsgId, Model> = BTreeMap::new();
            let mut delivered = [0u64; N];
            let timeout = NACK_TIMEOUT;
            for (step, (op, s, x, len, frontier)) in script.into_iter().enumerate() {
                // Three steps to a timeout, so chases come due mid-script.
                let now = SimTime::from_micros(step as u64 * timeout.as_micros() / 3);
                let id = MsgId { sender: s, seq: delivered[s] + 1 + x };
                let chase = Chase::new(x as usize, now + timeout);
                let slot = ahead.get(&id).copied();
                match op {
                    0 => {
                        let next = MsgId { sender: s, seq: delivered[s] + 1 };
                        if matches!(ahead.get(&next), Some(Model::Parked(..))) {
                            continue;
                        }
                        ahead.remove(&next);
                        delivered[s] += 1;
                        let msg = DataMsg::new(next, VectorClock::new(N), step as u32);
                        windows.push(msg.clone());
                        retained.insert(next, msg);
                    }
                    1 => {
                        let stable = VectorClock::from_entries(frontier);
                        let before = retained.len();
                        retained.retain(|id, _| id.seq > stable.get(id.sender));
                        prop_assert_eq!(windows.reclaim(&stable), before - retained.len());
                    }
                    2 => {
                        let chase = Chase::new(x as usize, SimTime::ZERO);
                        windows.chase(id, x as usize);
                        match slot {
                            None => { ahead.insert(id, Model::Chased(chase)); }
                            Some(Model::Parked(p, None)) => { ahead.insert(id, Model::Parked(p, Some(chase))); }
                            Some(_) => {}
                        }
                    }
                    3 => {
                        let lo = delivered[s].saturating_sub(2) + x;
                        let mut fresh = Vec::new();
                        windows.chase_range(s, lo..=lo + len, chase, &mut fresh, usize::MAX);
                        let want: Vec<MsgId> = (lo..=lo + len)
                            .map(|seq| MsgId { sender: s, seq })
                            .filter(|id| id.seq > delivered[s] && !ahead.contains_key(id))
                            .collect();
                        for &id in &want {
                            ahead.insert(id, Model::Chased(chase));
                        }
                        prop_assert_eq!(fresh, want);
                    }
                    4 => if matches!(slot, None | Some(Model::Chased(_))) {
                        windows.hold(id);
                        ahead.insert(id, Model::Held(slot.is_some()));
                    }
                    5 => if !matches!(slot, Some(Model::Held(_))) {
                        windows.park(DataMsg::new(id, VectorClock::new(N), step as u32));
                        let chase = slot.as_ref().and_then(chase_of);
                        ahead.insert(id, Model::Parked(step as u32, chase));
                    }
                    6 => {
                        let got = windows.unpark(s, id.seq..=id.seq).pop().map(|m| m.payload);
                        let want = match slot {
                            Some(Model::Parked(p, c)) => {
                                match c {
                                    Some(c) => ahead.insert(id, Model::Chased(c)),
                                    None => ahead.remove(&id),
                                };
                                Some(p)
                            }
                            _ => None,
                        };
                        prop_assert_eq!(got, want);
                    }
                    7 => {
                        let lo = delivered[s].saturating_sub(2) + x;
                        let got: Vec<u64> = windows.unpark(s, lo..=lo + len).iter().map(|m| m.id.seq).collect();
                        let mut want = Vec::new();
                        for seq in lo..=lo + len {
                            let id = MsgId { sender: s, seq };
                            if let Some(Model::Parked(_, c)) = ahead.get(&id).copied() {
                                match c {
                                    Some(c) => ahead.insert(id, Model::Chased(c)),
                                    None => ahead.remove(&id),
                                };
                                want.push(seq);
                            }
                        }
                        prop_assert_eq!(got, want);
                    }
                    8 => {
                        let cut = delivered[s] + x;
                        let got = windows.truncate(s, cut);
                        let mut want = Vec::new();
                        let beyond: Vec<MsgId> = ahead
                            .range(MsgId { sender: s, seq: cut + 1 }..=MsgId { sender: s, seq: u64::MAX })
                            .map(|(id, _)| *id)
                            .collect();
                        for id in beyond {
                            match ahead[&id] {
                                Model::Held(_) => {
                                    want.push(id.seq);
                                    ahead.remove(&id);
                                }
                                Model::Chased(_) => { ahead.remove(&id); }
                                Model::Parked(p, _) => { ahead.insert(id, Model::Parked(p, None)); }
                            }
                        }
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        let cap = len as usize;
                        let mut want = Vec::new();
                        for (id, m) in ahead.iter_mut() {
                            if want.len() == cap {
                                break;
                            }
                            if let Model::Chased(c) | Model::Parked(_, Some(c)) = m {
                                if now >= c.due {
                                    want.push((*id, *c));
                                    c.due = now + timeout;
                                    c.round += 1;
                                }
                            }
                        }
                        prop_assert_eq!(windows.due(now, cap), want);
                    }
                }
                prop_assert_eq!(windows.len(), retained.len());
                let parked = ahead.values().filter(|m| matches!(m, Model::Parked(..))).count();
                prop_assert_eq!(windows.parked_len(), parked);
                let chases: Vec<(MsgId, Chase)> = ahead
                    .iter()
                    .filter_map(|(id, m)| chase_of(m).map(|c| (*id, c)))
                    .collect();
                prop_assert_eq!(windows.chases(), chases);
                for sender in 0..=N {
                    let last = delivered.get(sender).copied().unwrap_or(0);
                    for seq in 0..=last + 12 {
                        let id = MsgId { sender, seq };
                        let want = retained.get(&id).map(|m| (m.id, m.payload));
                        let got = windows.get(id).map(|m| (m.id, m.payload));
                        prop_assert_eq!(got, want);
                        let got = windows.get_mut(id).map(|m| (m.id, m.payload));
                        prop_assert_eq!(got, want);
                        let model = ahead.get(&id).copied();
                        prop_assert_eq!(windows.slot(id).map(seen), model);
                        prop_assert_eq!(windows.is_held(id), matches!(model, Some(Model::Held(_))));
                        prop_assert_eq!(windows.arrived_chased(id), model == Some(Model::Held(true)));
                    }
                }
                // The frontier is the first unknown id: everything below it
                // is delivered or known, and it is not.
                for (k, &d) in delivered.iter().enumerate() {
                    let f = windows.frontier(k);
                    let known = |seq| ahead.contains_key(&MsgId { sender: k, seq });
                    prop_assert!(f >= d && ((d + 1)..=f).all(known) && !known(f + 1));
                }
                let want: Vec<MsgId> = retained.keys().copied().collect();
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
        for seq in 1..=3 {
            windows.push(DataMsg::new(id(1, seq), VectorClock::new(2), ()));
        }
        windows.reclaim(&VectorClock::from_entries(vec![0, 2]));
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
            assert!(windows.slot(id(sender, seq)).is_none(), "{sender}.{seq}");
        }
        assert!(windows.get(id(1, 3)).is_some());
    }

    /// No id more than `MAX_CHASE_AHEAD` past what was delivered takes a
    /// slot, whoever asks: the window stays as it was.
    #[test]
    fn an_id_out_of_reach_opens_no_slot() {
        let id = |seq| MsgId { sender: 0, seq };
        let chase = Chase::new(1, SimTime::ZERO);
        let mut windows: SenderWindows<()> = SenderWindows::new(2);
        windows.chase(id(MAX_CHASE_AHEAD + 1), 1);
        windows.chase_range(0, MAX_CHASE_AHEAD..=u64::MAX, chase, &mut Vec::new(), 0);
        assert_eq!(windows.chases(), [(id(MAX_CHASE_AHEAD), chase)]);
        windows.chase(MsgId { sender: 2, seq: 1 }, 1);
        assert_eq!(windows.chases().len(), 1);
    }
}
