//! Chandy–Lamport consistent snapshots over plain channels (§4.2).
//!
//! "Even detection problems requiring a full 'consistent cut' can be
//! solved using a periodic consistent snapshot protocol, which can also
//! be implemented efficiently at the state level without CATOCS." This is
//! the classic marker algorithm: FIFO channels, no ordering support
//! beyond that.
//!
//! The engine is a per-process state machine. A snapshot proceeds as:
//!
//! 1. the initiator records its state and sends a marker on every
//!    outgoing channel;
//! 2. on first marker receipt, a process records its state, marks the
//!    incoming channel empty, and relays markers on all outgoing
//!    channels;
//! 3. messages arriving on a channel after the local recording but before
//!    that channel's marker are recorded as channel state;
//! 4. the local snapshot is complete when markers have arrived on every
//!    incoming channel.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The completed local contribution to a snapshot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalSnapshot<S, M> {
    /// The process's recorded state.
    pub state: S,
    /// Messages recorded in flight on each incoming channel.
    pub channels: BTreeMap<usize, Vec<M>>,
}

/// Per-process Chandy–Lamport engine.
#[derive(Debug)]
pub struct SnapshotEngine<S, M> {
    me: usize,
    n: usize,
    /// Recorded local state (None = not yet participating).
    recorded: Option<S>,
    /// Channels still being recorded (marker not yet received).
    recording: BTreeSet<usize>,
    /// Recorded channel contents.
    channels: BTreeMap<usize, Vec<M>>,
    /// Completed snapshot, if any.
    complete: Option<LocalSnapshot<S, M>>,
}

/// What the caller must send after an engine event: markers to everyone.
#[derive(Debug, PartialEq, Eq)]
pub enum SnapshotAction {
    /// No sends required.
    None,
    /// Send a marker on every outgoing channel (to all other processes).
    SendMarkers,
}

impl<S: Clone, M: Clone> SnapshotEngine<S, M> {
    /// Creates an engine for process `me` of `n`.
    pub fn new(me: usize, n: usize) -> Self {
        SnapshotEngine {
            me,
            n,
            recorded: None,
            recording: BTreeSet::new(),
            channels: BTreeMap::new(),
            complete: None,
        }
    }

    /// The completed local snapshot, if finished.
    pub fn completed(&self) -> Option<&LocalSnapshot<S, M>> {
        self.complete.as_ref()
    }

    /// Initiates a snapshot with the current local `state`.
    pub fn initiate(&mut self, state: S) -> SnapshotAction {
        if self.recorded.is_some() {
            return SnapshotAction::None;
        }
        self.record(state);
        SnapshotAction::SendMarkers
    }

    /// Handles a marker from `from`; `state` is sampled lazily only if
    /// this is the first marker.
    pub fn on_marker(&mut self, from: usize, state: impl FnOnce() -> S) -> SnapshotAction {
        let action = if self.recorded.is_none() {
            self.record(state());
            SnapshotAction::SendMarkers
        } else {
            SnapshotAction::None
        };
        self.recording.remove(&from);
        self.maybe_complete();
        action
    }

    /// Handles an application message from `from` (call for *every*
    /// app message while a snapshot may be active).
    pub fn on_app_message(&mut self, from: usize, msg: &M) {
        if self.recorded.is_some() && self.complete.is_none() && self.recording.contains(&from) {
            self.channels.entry(from).or_default().push(msg.clone());
        }
    }

    fn record(&mut self, state: S) {
        self.recorded = Some(state);
        self.recording = (0..self.n).filter(|&k| k != self.me).collect();
        self.channels.clear();
        self.maybe_complete();
    }

    fn maybe_complete(&mut self) {
        if self.recorded.is_some() && self.recording.is_empty() && self.complete.is_none() {
            self.complete = Some(LocalSnapshot {
                state: self.recorded.clone().expect("recorded"),
                channels: std::mem::take(&mut self.channels),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initiator_records_and_sends_markers() {
        let mut e: SnapshotEngine<u32, &str> = SnapshotEngine::new(0, 3);
        assert_eq!(e.initiate(42), SnapshotAction::SendMarkers);
        assert!(e.completed().is_none(), "still waiting on markers");
        assert_eq!(e.initiate(43), SnapshotAction::None, "idempotent");
    }

    #[test]
    fn first_marker_triggers_recording() {
        let mut e: SnapshotEngine<u32, &str> = SnapshotEngine::new(1, 3);
        let a = e.on_marker(0, || 7);
        assert_eq!(a, SnapshotAction::SendMarkers);
        // Second marker completes (channels 0 and 2 both done).
        let a = e.on_marker(2, || 999);
        assert_eq!(a, SnapshotAction::None);
        let snap = e.completed().expect("complete");
        assert_eq!(snap.state, 7);
        assert!(snap.channels.values().all(|v| v.is_empty()));
    }

    #[test]
    fn in_flight_messages_recorded_on_open_channels() {
        let mut e: SnapshotEngine<u32, &str> = SnapshotEngine::new(1, 3);
        e.on_marker(0, || 1); // channel 0 closed, channel 2 recording
        e.on_app_message(2, &"in-flight");
        e.on_app_message(0, &"post-marker"); // channel 0 already closed
        e.on_marker(2, || 0);
        let snap = e.completed().unwrap();
        assert_eq!(snap.channels.get(&2).unwrap(), &vec!["in-flight"]);
        assert!(!snap.channels.contains_key(&0));
    }

    #[test]
    fn messages_before_recording_are_not_channel_state() {
        let mut e: SnapshotEngine<u32, &str> = SnapshotEngine::new(1, 2);
        e.on_app_message(0, &"too-early");
        e.on_marker(0, || 5);
        let snap = e.completed().unwrap();
        assert!(snap.channels.values().all(|v| v.is_empty()));
    }

    #[test]
    fn two_process_cut_is_consistent() {
        // P0 sends 3 messages, initiates after the 2nd; P1 has received
        // 1 when the marker arrives — message 2 is channel state.
        let mut p0: SnapshotEngine<u32, u32> = SnapshotEngine::new(0, 2);
        let mut p1: SnapshotEngine<u32, u32> = SnapshotEngine::new(1, 2);
        // P1 receives message 1.
        p1.on_app_message(0, &1);
        // P0 records having sent 2 messages.
        assert_eq!(p0.initiate(2), SnapshotAction::SendMarkers);
        // Message 2 is in flight: arrives at P1 before the marker.
        // P1 hasn't recorded yet, so it is NOT channel state — it will be
        // reflected in P1's local state instead.
        p1.on_app_message(0, &2);
        let a = p1.on_marker(0, || 2 /* received both */);
        assert_eq!(a, SnapshotAction::SendMarkers);
        let s1 = p1.completed().unwrap().clone();
        p0.on_marker(1, || unreachable!("p0 already recorded"));
        let s0 = p0.completed().unwrap().clone();
        // Consistency: sent (2) == received in state (2) + in channels (0).
        let in_channels: usize = s1.channels.values().map(|v| v.len()).sum();
        assert_eq!(s0.state as usize, s1.state as usize + in_channels);
    }
}
