//! Broadcast schedules and their verification.

use std::convert::Infallible;
use wsn_bitset::NodeSet;
use wsn_dutycycle::{AlwaysAwake, Slot, WakeSchedule};
use wsn_phy::{ConflictModel, ProtocolModel};
use wsn_topology::{NodeId, Topology};

/// One advance: a conflict-free sender set launched in a slot. Under a
/// multi-channel model the slot may carry several sender groups, one per
/// orthogonal channel, recorded in `channels`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The slot of the transmission.
    pub slot: Slot,
    /// The senders (one color, or one group per channel), ascending by
    /// node id.
    pub senders: Vec<NodeId>,
    /// Channel of each sender, parallel to `senders`. Empty means "all on
    /// channel 0" — the single-channel system, and the shape of every
    /// schedule produced under a `channels() == 1` model.
    pub channels: Vec<u8>,
}

impl ScheduleEntry {
    /// A single-channel advance (`channels` empty).
    pub fn new(slot: Slot, senders: Vec<NodeId>) -> ScheduleEntry {
        ScheduleEntry {
            slot,
            senders,
            channels: Vec::new(),
        }
    }

    /// The channel of sender `i` (0 when the entry is single-channel).
    #[inline]
    pub fn channel_of(&self, i: usize) -> u8 {
        self.channels.get(i).copied().unwrap_or(0)
    }
}

/// A complete broadcast schedule: which conflict-free set transmits in
/// which slot, from the source's first sending slot `t_s` until coverage.
///
/// Its size follows its transmissions, not the network: nothing is stored
/// per node. Per-node facts come on demand from the one replay behind
/// [`Schedule::verify_covering_with_model`]: the slot in which each node
/// first hears the message ([`Schedule::receive_slots`]), its serving
/// parent and delivery bound ([`Schedule::serving_tree`]), and the nodes a
/// dead mask strands ([`Schedule::stranded_under`]).
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The broadcast source.
    pub source: NodeId,
    /// The source's first sending slot (`t_s`).
    pub start: Slot,
    /// Advances in strictly increasing slot order.
    pub entries: Vec<ScheduleEntry>,
    /// Per-entry repeat counts, parallel to `entries` — the ε-reliability
    /// retransmission budget. Entry `i` occupies the slot range
    /// `[slot, slot + repeats[i])`: its sender set re-fires in each slot of
    /// the range (skipping slots where a sender is asleep or not yet
    /// informed), and the next entry's range must start strictly after.
    /// Empty means "every entry fires exactly once" — the lossless system
    /// and the shape of every schedule the lossless schedulers produce, so
    /// all historical paths stay bit-identical. See
    /// [`Schedule::verify_reliability`] for the objective the repeats buy.
    pub repeats: Vec<u32>,
}

impl Schedule {
    /// The repeat count of entry `i` (1 when `repeats` is empty).
    #[inline]
    pub fn repeat_of(&self, i: usize) -> u32 {
        self.repeats.get(i).copied().unwrap_or(1)
    }

    /// The last slot entry `i` occupies (`slot` itself without repeats).
    #[inline]
    pub fn entry_end(&self, i: usize) -> Slot {
        self.entries[i].slot + Slot::from(self.repeat_of(i).max(1)) - 1
    }

    /// Total occupied slots across all entries (the retransmission *slot
    /// budget* reliability comparisons hold fixed); equals the entry count
    /// for a repeat-free schedule.
    pub fn slot_budget(&self) -> u64 {
        if self.repeats.is_empty() {
            return self.entries.len() as u64;
        }
        self.repeats.iter().map(|&r| u64::from(r.max(1))).sum()
    }

    /// The slot of the last transmission (`t_e` in Eq. 4; `M(N, t) = t−1`
    /// makes the counter equal the final transmission slot). Repeat slots
    /// count: with repeats the completion slot is the end of the last
    /// entry's occupied range.
    ///
    /// # Panics
    ///
    /// Panics on a schedule with no entries (a 1-node broadcast needs no
    /// transmission; callers special-case it).
    pub fn completion_slot(&self) -> Slot {
        assert!(!self.entries.is_empty(), "schedule has no transmissions");
        self.entry_end(self.entries.len() - 1)
    }

    /// End-to-end latency in rounds/slots: `t_e − t_s + 1`, the elapsed
    /// number of slots from the source's first transmission through the
    /// last. This is the `P(A)` the paper reports when `t_s = 1`.
    pub fn latency(&self) -> Slot {
        if self.entries.is_empty() {
            return 0;
        }
        self.completion_slot() - self.start + 1
    }

    /// Total number of transmissions (channel uses) across all advances —
    /// the redundancy metric of broadcast-storm discussions. Each repeat
    /// slot re-fires the entry's whole sender set, so repeats multiply.
    pub fn transmission_count(&self) -> usize {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| e.senders.len() * self.repeat_of(i).max(1) as usize)
            .sum()
    }

    /// Replays the schedule and checks every legality condition under the
    /// paper's protocol model, single channel. Verified schedules are
    /// exactly those executable on the paper's network model:
    ///
    /// 1. entries are in strictly increasing slot order, none before `t_s`;
    /// 2. every sender is informed before its slot, awake in it
    ///    (`slot ∈ T(u)`), and transmits at most once over the schedule;
    /// 3. no two concurrent senders share an uninformed neighbor — checked
    ///    independently of the scheduler via receiver-side collision
    ///    resolution;
    /// 4. every node is informed by the end (full coverage).
    ///
    /// Schedules produced under another conflict regime (SINR,
    /// multi-channel) must be checked with
    /// [`Schedule::verify_with_model`] instead — this entry point rejects
    /// any entry that uses a channel other than 0.
    pub fn verify<S: WakeSchedule>(&self, topo: &Topology, wake: &S) -> Result<(), ScheduleError> {
        self.verify_with_model(topo, wake, &ProtocolModel)
    }

    /// As [`Schedule::verify`], under an arbitrary [`ConflictModel`]:
    /// reception is resolved by the model (SINR capture, …) **per channel
    /// group**, every used channel must exist (`< model.channels()`), and
    /// a collision inside any group is an error. The informed set grows by
    /// the union of the groups' clean receptions.
    pub fn verify_with_model<S: WakeSchedule, M: ConflictModel>(
        &self,
        topo: &Topology,
        wake: &S,
        model: &M,
    ) -> Result<(), ScheduleError> {
        self.verify_covering_with_model(topo, wake, model, None)
    }

    /// As [`Schedule::verify_with_model`], over the subgraph that survives
    /// removing `excluded` (dead nodes under churn): excluded nodes may
    /// never transmit, don't count as collision victims or uninformed
    /// witnesses, and are not owed coverage. `excluded = None` is exactly
    /// full verification — the repair tier checks its output with the same
    /// replay the lossless tier uses.
    pub fn verify_covering_with_model<S: WakeSchedule, M: ConflictModel>(
        &self,
        topo: &Topology,
        wake: &S,
        model: &M,
        excluded: Option<&NodeSet>,
    ) -> Result<(), ScheduleError> {
        self.replay(topo, wake, model, excluded, Err, |_, _| {})
            .map(|_| ())
    }

    /// The slot in which each node first hears the message, from the
    /// replay [`Schedule::verify_covering_with_model`] runs under `model`
    /// with `excluded` masked out. The source, excluded nodes and nodes the
    /// schedule never reaches read `start`.
    ///
    /// Wake schedules decide only whether a sender may fire, never who
    /// hears it, so none is asked for. On a schedule that fails
    /// verification for another reason the replay stops at the failing
    /// entry, and the nodes it had not informed by then read `start`.
    pub fn receive_slots<M: ConflictModel>(
        &self,
        topo: &Topology,
        model: &M,
        excluded: Option<&NodeSet>,
    ) -> Vec<Slot> {
        let mut slots = vec![self.start; topo.len()];
        // The slots are the product here; a verdict, if any, is the
        // caller's to ask for.
        let _ = self.replay(topo, &AlwaysAwake, model, excluded, Err, |ei, groups| {
            for group in groups {
                for w in group.received.iter() {
                    slots[w] = self.entries[ei].slot;
                }
            }
        });
        slots
    }

    /// How many nodes outside `excluded` the schedule no longer informs
    /// once the excluded nodes fall silent: the replay of
    /// [`Schedule::verify_covering_with_model`], except that a sender the
    /// verifier would reject (excluded, not yet informed, …) is left out
    /// instead of failing the schedule, and a collision only leaves its
    /// victims uninformed. Wake schedules are not consulted. This is the
    /// damage a repair must re-serve.
    pub fn stranded_under<M: ConflictModel>(
        &self,
        topo: &Topology,
        model: &M,
        excluded: &NodeSet,
    ) -> usize {
        let forgive = |_| Ok::<(), Infallible>(());
        let Ok(informed) = self.replay(
            topo,
            &AlwaysAwake,
            model,
            Some(excluded),
            forgive,
            |_, _| {},
        );
        topo.len() - informed.len()
    }

    /// The one replay of a schedule under a conflict model, behind
    /// verification, [`Schedule::receive_slots`],
    /// [`Schedule::stranded_under`] and [`Schedule::serving_tree`].
    ///
    /// Per entry it checks the senders, builds one sender set per used
    /// channel, resolves every group against the entry's uninformed set and
    /// shows the groups to `on_entry` with the entry's index. Only then do
    /// the receptions join the informed set, so no node sends in the entry
    /// that informs it.
    ///
    /// Every violation goes to `fault`. An `Err` ends the replay with it.
    /// `Ok` carries on: a sender that may not fire is left out of its group,
    /// a collision leaves its victims uninformed, and an ill-formed entry or
    /// missing coverage is passed over. Returns the informed set, excluded
    /// nodes included.
    pub(crate) fn replay<S: WakeSchedule, M: ConflictModel, E>(
        &self,
        topo: &Topology,
        wake: &S,
        model: &M,
        excluded: Option<&NodeSet>,
        mut fault: impl FnMut(ScheduleError) -> Result<(), E>,
        mut on_entry: impl FnMut(usize, &[ChannelGroup]),
    ) -> Result<NodeSet, E> {
        let n = topo.len();
        if !self.repeats.is_empty()
            && (self.repeats.len() != self.entries.len() || self.repeats.contains(&0))
        {
            fault(ScheduleError::RepeatArity)?;
        }
        let mut informed = NodeSet::new(n);
        informed.insert(self.source.idx());
        if let Some(dead) = excluded {
            if dead.contains(self.source.idx()) {
                fault(ScheduleError::ExcludedSender {
                    node: self.source,
                    slot: self.start,
                })?;
            }
            informed.union_with(dead);
        }
        let mut has_sent = NodeSet::new(n);
        let mut prev_slot: Option<Slot> = None;
        let mut groups: Vec<ChannelGroup> = Vec::new();

        for (ei, entry) in self.entries.iter().enumerate() {
            let slot = entry.slot;
            if slot < self.start {
                fault(ScheduleError::BeforeStart { slot })?;
            }
            // With repeats an entry occupies `[slot, entry_end]`; the next
            // entry must start strictly after the whole range.
            if let Some(prev) = prev_slot.filter(|&p| slot <= p) {
                fault(ScheduleError::NonMonotonicSlots { prev, next: slot })?;
            }
            prev_slot = Some(self.entry_end(ei));
            if entry.senders.is_empty() {
                fault(ScheduleError::EmptyAdvance { slot })?;
            }
            if !entry.channels.is_empty() && entry.channels.len() != entry.senders.len() {
                fault(ScheduleError::ChannelArity { slot })?;
            }

            // One sender bitset per used channel, built while the
            // per-sender conditions are checked.
            groups.clear();
            for (i, &node) in entry.senders.iter().enumerate() {
                let channel = entry.channel_of(i);
                let u = node.idx();
                let violation = if excluded.is_some_and(|dead| dead.contains(u)) {
                    Some(ScheduleError::ExcludedSender { node, slot })
                } else if !informed.contains(u) {
                    Some(ScheduleError::UninformedSender { node, slot })
                } else if !wake.can_send(u, slot) {
                    Some(ScheduleError::AsleepSender { node, slot })
                } else if has_sent.contains(u) {
                    Some(ScheduleError::DuplicateSender { node })
                } else if u32::from(channel) >= model.channels() {
                    Some(ScheduleError::BadChannel {
                        node,
                        slot,
                        channel,
                    })
                } else {
                    None
                };
                if let Some(e) = violation {
                    fault(e)?;
                    continue;
                }
                has_sent.insert(u);
                match groups.iter_mut().find(|g| g.channel == channel) {
                    Some(g) => {
                        g.senders.insert(u);
                    }
                    None => {
                        let mut senders = NodeSet::new(n);
                        senders.insert(u);
                        groups.push(ChannelGroup {
                            channel,
                            senders,
                            received: NodeSet::new(0),
                        });
                    }
                }
            }

            // All groups transmit simultaneously against the same W̄; a
            // receiver is served when any channel delivers to it cleanly.
            let uninformed = informed.complement();
            for g in &mut groups {
                let outcome = model.resolve_receptions(topo, &g.senders, &uninformed);
                if let Some(victim) = outcome.collided.min() {
                    fault(ScheduleError::Collision {
                        victim: NodeId(victim as u32),
                        slot,
                    })?;
                }
                g.received = outcome.received;
            }
            on_entry(ei, &groups);
            for g in &groups {
                informed.union_with(&g.received);
            }
        }

        if !informed.is_full() {
            let missing = informed.complement().min().expect("non-full set");
            fault(ScheduleError::Incomplete {
                node: NodeId(missing as u32),
            })?;
        }
        Ok(informed)
    }
}

/// One channel's share of a schedule entry, as the replay resolved it.
pub(crate) struct ChannelGroup {
    /// The channel.
    channel: u8,
    /// The entry's senders on this channel that fired.
    pub(crate) senders: NodeSet,
    /// The uninformed nodes that heard this channel cleanly.
    pub(crate) received: NodeSet,
}

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A transmission precedes the source's start slot.
    BeforeStart { slot: Slot },
    /// Entries are not strictly increasing in slot.
    NonMonotonicSlots { prev: Slot, next: Slot },
    /// An entry with no senders.
    EmptyAdvance { slot: Slot },
    /// A sender transmits before being informed.
    UninformedSender { node: NodeId, slot: Slot },
    /// A sender transmits in a slot where its sending channel is off.
    AsleepSender { node: NodeId, slot: Slot },
    /// A node transmits twice.
    DuplicateSender { node: NodeId },
    /// Two concurrent senders collide at an uninformed node.
    Collision { victim: NodeId, slot: Slot },
    /// Some node never receives the message.
    Incomplete { node: NodeId },
    /// A sender uses a channel the model does not provide.
    BadChannel {
        node: NodeId,
        slot: Slot,
        channel: u8,
    },
    /// An entry's channel list does not match its sender list.
    ChannelArity { slot: Slot },
    /// A non-empty repeat list does not match the entry list, or contains a
    /// zero repeat count.
    RepeatArity,
    /// An excluded (dead) node transmits, or the source itself is excluded.
    ExcludedSender { node: NodeId, slot: Slot },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::BeforeStart { slot } => {
                write!(f, "transmission at slot {slot} precedes the start slot")
            }
            ScheduleError::NonMonotonicSlots { prev, next } => {
                write!(f, "slot {next} does not follow slot {prev}")
            }
            ScheduleError::EmptyAdvance { slot } => write!(f, "empty advance at slot {slot}"),
            ScheduleError::UninformedSender { node, slot } => {
                write!(f, "node {node} transmits at slot {slot} before receiving")
            }
            ScheduleError::AsleepSender { node, slot } => {
                write!(f, "node {node} transmits at slot {slot} while asleep")
            }
            ScheduleError::DuplicateSender { node } => {
                write!(f, "node {node} transmits more than once")
            }
            ScheduleError::Collision { victim, slot } => {
                write!(f, "collision at node {victim} in slot {slot}")
            }
            ScheduleError::Incomplete { node } => {
                write!(f, "node {node} never receives the message")
            }
            ScheduleError::BadChannel {
                node,
                slot,
                channel,
            } => {
                write!(
                    f,
                    "node {node} transmits at slot {slot} on nonexistent channel {channel}"
                )
            }
            ScheduleError::ChannelArity { slot } => {
                write!(f, "entry at slot {slot} has mismatched channel list")
            }
            ScheduleError::RepeatArity => {
                write!(f, "repeat list does not match entries or contains zero")
            }
            ScheduleError::ExcludedSender { node, slot } => {
                write!(f, "excluded (dead) node {node} transmits at slot {slot}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_dutycycle::{AlwaysAwake, ExplicitSchedule};
    use wsn_topology::fixtures;

    /// The Table II schedule for Figure 2(a): slot 1 node "1" transmits,
    /// slot 2 node "2" transmits.
    fn table2_schedule() -> (Schedule, wsn_topology::fixtures::Fixture) {
        let f = fixtures::fig2a();
        let s = Schedule {
            source: f.source,
            start: 1,
            entries: vec![
                ScheduleEntry::new(1, vec![f.id("1")]),
                ScheduleEntry::new(2, vec![f.id("2")]),
            ],
            repeats: Vec::new(),
        };
        (s, f)
    }

    #[test]
    fn paper_optimal_fig2a_verifies() {
        let (s, f) = table2_schedule();
        s.verify(&f.topo, &AlwaysAwake).unwrap();
        assert_eq!(s.latency(), 2);
        assert_eq!(s.completion_slot(), 2);
        assert_eq!(s.transmission_count(), 2);
    }

    #[test]
    fn conflicting_senders_rejected() {
        let f = fixtures::fig2a();
        // Launching "2" and "3" together collides at "4".
        let s = Schedule {
            source: f.source,
            start: 1,
            entries: vec![
                ScheduleEntry::new(1, vec![f.id("1")]),
                ScheduleEntry::new(2, vec![f.id("2"), f.id("3")]),
            ],
            repeats: Vec::new(),
        };
        let err = s.verify(&f.topo, &AlwaysAwake).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::Collision {
                victim: f.id("4"),
                slot: 2
            }
        );
    }

    #[test]
    fn uninformed_sender_rejected() {
        let f = fixtures::fig2a();
        let s = Schedule {
            source: f.source,
            start: 1,
            entries: vec![ScheduleEntry::new(1, vec![f.id("2")])],
            repeats: Vec::new(),
        };
        assert!(matches!(
            s.verify(&f.topo, &AlwaysAwake).unwrap_err(),
            ScheduleError::UninformedSender { .. }
        ));
    }

    #[test]
    fn asleep_sender_rejected() {
        let (s, f) = table2_schedule();
        // Node "1" (id 0) only wakes at slot 3 — its slot-1 transmission is
        // illegal under this duty cycle.
        let wake = ExplicitSchedule::new(vec![vec![3], vec![2], vec![2], vec![2], vec![2]], 10);
        assert!(matches!(
            s.verify(&f.topo, &wake).unwrap_err(),
            ScheduleError::AsleepSender { .. }
        ));
    }

    #[test]
    fn incomplete_coverage_rejected() {
        let f = fixtures::fig2a();
        let s = Schedule {
            source: f.source,
            start: 1,
            entries: vec![ScheduleEntry::new(1, vec![f.id("1")])],
            repeats: Vec::new(),
        };
        assert!(matches!(
            s.verify(&f.topo, &AlwaysAwake).unwrap_err(),
            ScheduleError::Incomplete { .. }
        ));
    }

    #[test]
    fn slot_order_enforced() {
        let (mut s, f) = table2_schedule();
        s.entries.swap(0, 1);
        assert!(matches!(
            s.verify(&f.topo, &AlwaysAwake).unwrap_err(),
            // Node "2" now transmits at slot 2 before anything reached it…
            // except slot order is checked per entry as we replay: the
            // swapped order fails monotonicity first.
            ScheduleError::UninformedSender { .. } | ScheduleError::NonMonotonicSlots { .. }
        ));
    }

    #[test]
    fn receive_slots_replay_first_hearings() {
        let (s, f) = table2_schedule();
        // "1" sends in slot 1 and reaches "2" and "3"; "2" sends in slot 2
        // and reaches "4" and "5". The source reads the start slot.
        assert_eq!(
            s.receive_slots(&f.topo, &ProtocolModel, None),
            [1, 1, 1, 2, 2]
        );
        // A dead leaf is owed nothing and reads the start slot.
        let mut dead = NodeSet::new(f.topo.len());
        dead.insert(f.id("5").idx());
        assert_eq!(
            s.receive_slots(&f.topo, &ProtocolModel, Some(&dead)),
            [1, 1, 1, 2, 1]
        );
        // The replay stops at a collision: "4" is never informed.
        let mut bad = s.clone();
        bad.entries[1].senders = vec![f.id("2"), f.id("3")];
        assert_eq!(
            bad.receive_slots(&f.topo, &ProtocolModel, None),
            [1, 1, 1, 1, 1]
        );
    }

    #[test]
    fn multichannel_entry_verifies_under_its_model() {
        use wsn_phy::{MultiChannel, ProtocolModel};
        let f = fixtures::fig2a();
        // "2" and "3" conflict at "4" on one channel — but on two channels
        // they may fire in the same slot.
        let s = Schedule {
            source: f.source,
            start: 1,
            entries: vec![
                ScheduleEntry::new(1, vec![f.id("1")]),
                ScheduleEntry {
                    slot: 2,
                    senders: vec![f.id("2"), f.id("3")],
                    channels: vec![0, 1],
                },
            ],
            repeats: Vec::new(),
        };
        let two = MultiChannel::new(ProtocolModel, 2);
        s.verify_with_model(&f.topo, &AlwaysAwake, &two).unwrap();
        // The single-channel verifier rejects the channel-1 transmission…
        assert!(matches!(
            s.verify(&f.topo, &AlwaysAwake).unwrap_err(),
            ScheduleError::BadChannel { channel: 1, .. }
        ));
        // …and a mismatched channel list is rejected outright.
        let mut bad = s.clone();
        bad.entries[1].channels = vec![0];
        assert!(matches!(
            bad.verify_with_model(&f.topo, &AlwaysAwake, &two)
                .unwrap_err(),
            ScheduleError::ChannelArity { slot: 2 }
        ));
        // Same-channel conflicting senders still collide.
        let mut collide = s.clone();
        collide.entries[1].channels = vec![0, 0];
        assert!(matches!(
            collide
                .verify_with_model(&f.topo, &AlwaysAwake, &two)
                .unwrap_err(),
            ScheduleError::Collision { slot: 2, .. }
        ));
    }

    #[test]
    fn covering_verification_masks_dead_nodes() {
        use wsn_phy::ProtocolModel;
        let f = fixtures::fig2a();
        // Kill node "5" (a leaf): the lossless schedule minus its coverage
        // obligation still verifies, and the full verifier still demands it.
        let dead_leaf = f.id("5");
        let s = Schedule {
            source: f.source,
            start: 1,
            entries: vec![
                ScheduleEntry::new(1, vec![f.id("1")]),
                ScheduleEntry::new(2, vec![f.id("2")]),
            ],
            repeats: Vec::new(),
        };
        let mut dead = NodeSet::new(f.topo.len());
        dead.insert(dead_leaf.idx());
        s.verify_covering_with_model(&f.topo, &AlwaysAwake, &ProtocolModel, Some(&dead))
            .unwrap();
        // A dead sender is rejected outright.
        let mut dead_sender = NodeSet::new(f.topo.len());
        dead_sender.insert(f.id("2").idx());
        assert!(matches!(
            s.verify_covering_with_model(&f.topo, &AlwaysAwake, &ProtocolModel, Some(&dead_sender))
                .unwrap_err(),
            ScheduleError::ExcludedSender { .. }
        ));
        // A dead source is rejected outright.
        let mut dead_src = NodeSet::new(f.topo.len());
        dead_src.insert(f.source.idx());
        assert!(matches!(
            s.verify_covering_with_model(&f.topo, &AlwaysAwake, &ProtocolModel, Some(&dead_src))
                .unwrap_err(),
            ScheduleError::ExcludedSender { .. }
        ));
    }

    #[test]
    fn empty_schedule_latency_zero() {
        let s = Schedule {
            source: NodeId(0),
            start: 1,
            entries: vec![],
            repeats: Vec::new(),
        };
        assert_eq!(s.latency(), 0);
    }
}
