//! [`PartialSchedule`]: the mutable assignment the tabu/PARTIALCOL local
//! search permutes.
//!
//! A complete broadcast schedule induces an assignment `relay → slot` plus
//! a *frozen* conflict structure: for every pair of relays whose witness
//! set is non-empty, the last slot at which they may not share a slot is
//! `deadline(u, v) = max_w receive[w]` over their witnesses `w`, where
//! `receive[w]` is the slot `w` was informed in
//! ([`Schedule::receive_slots`]) — a witness received in slot `r` is
//! vulnerable through slot `r` inclusive.
//! Against that frozen structure, evaluating a single-relay move costs
//! `O(degree)`: bump a per-slot cost counter for each partner, read the
//! counter at the target slot. The structure is *frozen* (receive times do
//! not track the moves), so a zero-cost assignment here is a *candidate*,
//! not a theorem — the legalizer re-simulates every candidate under the
//! real model before it can become the incumbent.
//!
//! The move discipline is PARTIALCOL, a classic graph-coloring local
//! search transplanted onto slots-with-deadlines
//! ([`PartialSchedule::begin_compress`] +
//! [`PartialSchedule::compress_step`]): evict the last occupied slot, then
//! repeatedly place an unassigned relay into its cheapest feasible slot,
//! evicting whoever it collides with (tabu forbids the evictee's old slot
//! for a tenure). Success = no unassigned relays ⇒ a schedule hint one
//! slot shorter.
//!
//! The frozen structure depends only on the schedule it was frozen from,
//! so one freeze serves every pass against the same incumbent:
//! [`PartialSchedule::rewind`] restores the just-frozen state in
//! `O(relays + window)` instead of re-running the conflict builder.

use mlbs_core::Schedule;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use wsn_bitset::NodeSet;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_interference::ConflictGraphBuilder;
use wsn_phy::ConflictModel;
use wsn_topology::{NodeId, Topology};

use crate::legalize::Hints;

/// Sentinel slot for "relay currently unassigned".
const UNASSIGNED: Slot = Slot::MAX;

/// One step of a compression pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// No relay is left unassigned.
    Done,
    /// A move was made; keep stepping.
    Progress,
    /// No feasible slot exists for the current relay (narrow wake window);
    /// the pass cannot succeed.
    Stuck,
}

/// The mutable per-pass assignment (see the module docs).
///
/// Equality compares the whole state, scratch included; a rewound value
/// equals a fresh freeze of the same schedule.
#[derive(Debug, PartialEq, Eq)]
pub struct PartialSchedule {
    /// Relay ids; index space of everything below.
    relays: Vec<NodeId>,
    /// Partner lists: `adj[i] = [(j, deadline), …]` — co-slot placement of
    /// `relays[i]` and `relays[j]` at slot `t` conflicts iff `t ≤ deadline`.
    adj: Vec<Vec<(u32, Slot)>>,
    /// Current absolute slot per relay ([`UNASSIGNED`] while evicted).
    slot_of: Vec<Slot>,
    /// The assignment as frozen, which [`PartialSchedule::rewind`]
    /// restores.
    frozen_slot_of: Vec<Slot>,
    /// Frozen earliest sending slot per relay (receive slot + 1; the
    /// source is pinned to the start slot and never moved).
    earliest: Vec<Slot>,
    /// Occupants per window offset (`slot − start`).
    buckets: Vec<Vec<u32>>,
    /// Source slot (window origin).
    start: Slot,
    /// Highest slot a move may currently target.
    cap: Slot,
    /// Relay index of the broadcast source.
    src: u32,
    /// `(relay, slot) → iteration until which the move is tabu`.
    tabu: HashMap<(u32, Slot), u64>,
    iter: u64,
    /// Scratch per-offset move costs plus the touched offsets.
    cost: Vec<u32>,
    touched: Vec<u32>,
    /// Currently evicted relays.
    unassigned: Vec<u32>,
}

impl PartialSchedule {
    /// Freezes `schedule`'s conflict structure into a move-searchable
    /// assignment. Partner pairs come from `builder` rows under `model`
    /// (spatially pruned at scale), deadlines from the cached witness sets
    /// against the receive times [`Schedule::receive_slots`] replays.
    pub fn from_schedule<M: ConflictModel>(
        schedule: &Schedule,
        topo: &Topology,
        model: &M,
        builder: &mut ConflictGraphBuilder,
    ) -> PartialSchedule {
        let receive = schedule.receive_slots(topo, model, None);
        PartialSchedule::freeze(schedule, &receive, topo, model, builder, None)
    }

    /// As [`PartialSchedule::from_schedule`], against known receive times
    /// (`receive[w]`, as [`Schedule::receive_slots`] with `dead` would give
    /// them) and with dead nodes masked out of the frozen structure: dead
    /// nodes cannot witness a conflict (they are excluded from the
    /// partner-row universe and from deadline computation), which is what
    /// makes repair-time passes as mobile as the surviving topology allows.
    /// The schedule itself must already be free of dead senders.
    pub(crate) fn freeze<M: ConflictModel>(
        schedule: &Schedule,
        receive: &[Slot],
        topo: &Topology,
        model: &M,
        builder: &mut ConflictGraphBuilder,
        dead: Option<&NodeSet>,
    ) -> PartialSchedule {
        let n = topo.len();
        let mut relays: Vec<NodeId> = Vec::new();
        let mut slot_of: Vec<Slot> = Vec::new();
        for entry in &schedule.entries {
            for &u in &entry.senders {
                relays.push(u);
                slot_of.push(entry.slot);
            }
        }
        let k = relays.len();
        let start = schedule.start;
        let end = schedule.entries.last().map_or(start, |e| e.slot);

        let mut src = u32::MAX;
        let mut earliest = vec![0; k];
        for (i, &u) in relays.iter().enumerate() {
            if u == schedule.source {
                src = i as u32;
                earliest[i] = start;
            } else {
                earliest[i] = receive[u.idx()] + 1;
            }
        }

        // Partner rows against "everyone but the source may still be
        // uninformed"; the deadline then narrows each edge to the slots
        // where some witness is actually vulnerable.
        let mut unf = NodeSet::full(n);
        unf.remove(schedule.source.idx());
        if let Some(dead) = dead {
            unf.difference_with(dead);
        }
        builder.update_with(model, topo, &relays, &unf);
        let mut adj: Vec<Vec<(u32, Slot)>> = vec![Vec::new(); k];
        for i in 0..k {
            let row: Vec<usize> = builder.graph().row(i).iter().collect();
            for j in row {
                if j <= i {
                    continue;
                }
                let deadline = builder
                    .witnesses(model, topo, relays[i], relays[j])
                    .iter()
                    .filter(|&&w| dead.is_none_or(|d| !d.contains(w as usize)))
                    .map(|&w| receive[w as usize])
                    .max()
                    .unwrap_or(0);
                adj[i].push((j as u32, deadline));
                adj[j].push((i as u32, deadline));
            }
        }

        let window = (end - start + 1) as usize;
        let mut partial = PartialSchedule {
            adj,
            frozen_slot_of: slot_of.clone(),
            slot_of,
            earliest,
            buckets: vec![Vec::new(); window],
            start,
            cap: end,
            src,
            tabu: HashMap::new(),
            iter: 0,
            cost: vec![0; window],
            touched: Vec::new(),
            unassigned: Vec::new(),
            relays,
        };
        // Fills the buckets, so a freeze and a rewind order them alike.
        partial.rewind();
        partial
    }

    /// Restores the state right after the freeze, undoing every pass run
    /// since: the frozen assignment, its slot buckets in ascending relay
    /// order (bucket order feeds the RNG-indexed unassigned stack; the
    /// freeze fills its buckets by calling this), the full window, and
    /// empty tabu and eviction state. `O(relays + window)`; the
    /// conflict builder is not consulted.
    pub fn rewind(&mut self) {
        self.slot_of.copy_from_slice(&self.frozen_slot_of);
        self.buckets.iter_mut().for_each(Vec::clear);
        for (i, &t) in self.slot_of.iter().enumerate() {
            self.buckets[(t - self.start) as usize].push(i as u32);
        }
        self.cap = self.start + self.buckets.len() as Slot - 1;
        self.tabu.clear();
        self.iter = 0;
        for idx in self.touched.drain(..) {
            self.cost[idx as usize] = 0;
        }
        self.unassigned.clear();
    }

    /// The relay list (the assignment's index space).
    pub fn relays(&self) -> &[NodeId] {
        &self.relays
    }

    /// Current slot of relay `i`, `None` while evicted.
    pub fn slot_of(&self, i: usize) -> Option<Slot> {
        (self.slot_of[i] != UNASSIGNED).then_some(self.slot_of[i])
    }

    /// Frozen-structure cost of placing relay `i` at slot `t`: the number
    /// of partners already sitting in `t` with a live deadline. `O(degree)`.
    pub fn move_cost(&self, i: usize, t: Slot) -> u32 {
        self.adj[i]
            .iter()
            .filter(|&&(j, dl)| self.slot_of[j as usize] == t && t <= dl)
            .count() as u32
    }

    /// The last occupied window offset, if any slot is occupied.
    fn last_occupied(&self) -> Option<usize> {
        self.buckets.iter().rposition(|b| !b.is_empty())
    }

    /// Starts a PARTIALCOL pass: evicts every relay of the last occupied
    /// slot and forbids any slot beyond the second-to-last. Returns `false`
    /// when the schedule is too short to compress (source slot only).
    pub fn begin_compress(&mut self) -> bool {
        let Some(off) = self.last_occupied() else {
            return false;
        };
        if off == 0 {
            return false;
        }
        for i in std::mem::take(&mut self.buckets[off]) {
            self.slot_of[i as usize] = UNASSIGNED;
            self.unassigned.push(i);
        }
        self.cap = self.start + off as Slot - 1;
        true
    }

    /// One PARTIALCOL move: place an unassigned relay into its cheapest
    /// non-tabu feasible slot, evicting the partners it collides with.
    pub fn compress_step<S: WakeSchedule>(
        &mut self,
        wake: &S,
        tenure: u64,
        rng: &mut StdRng,
    ) -> StepOutcome {
        let Some(pick) = self.pick_unassigned(rng) else {
            return StepOutcome::Done;
        };
        let Some(t) = self.best_slot(pick, wake, rng) else {
            // No wake-feasible slot inside the window: undo the pick.
            self.unassigned.push(pick as u32);
            return StepOutcome::Stuck;
        };
        self.place_evicting(pick, t, tenure, rng);
        self.iter += 1;
        if self.unassigned.is_empty() {
            StepOutcome::Done
        } else {
            StepOutcome::Progress
        }
    }

    /// Extracts the current assignment as legalizer hints (assigned relays
    /// only), slot-keyed.
    pub fn hints(&self) -> Hints {
        let mut hints = Hints::new();
        for (i, &t) in self.slot_of.iter().enumerate() {
            if t != UNASSIGNED {
                hints.entry(t).or_default().push(self.relays[i]);
            }
        }
        for list in hints.values_mut() {
            list.sort_unstable();
        }
        hints
    }

    /// Picks the next relay to place, randomly from the unassigned stack.
    fn pick_unassigned(&mut self, rng: &mut StdRng) -> Option<usize> {
        if self.unassigned.is_empty() {
            return None;
        }
        let at = rng.random_range(0..self.unassigned.len());
        Some(self.unassigned.swap_remove(at) as usize)
    }

    /// The cheapest non-tabu feasible slot for relay `i` (aspiration:
    /// zero-cost slots ignore tabu; if everything is tabu, the cheapest
    /// slot overall). Ties break uniformly at random. `None` when no
    /// wake-feasible slot exists.
    fn best_slot<S: WakeSchedule>(&mut self, i: usize, wake: &S, rng: &mut StdRng) -> Option<Slot> {
        // Bump per-offset costs from the partner list (O(degree)).
        for idx in self.touched.drain(..) {
            self.cost[idx as usize] = 0;
        }
        for &(j, dl) in &self.adj[i] {
            let t = self.slot_of[j as usize];
            if t != UNASSIGNED && t <= dl {
                let off = (t - self.start) as usize;
                if self.cost[off] == 0 {
                    self.touched.push(off as u32);
                }
                self.cost[off] += 1;
            }
        }
        let mut best: Option<(u32, bool, Slot)> = None; // (cost, was_tabu_free, slot)
        let mut ties = 0u32;
        let lo = self.earliest[i].max(self.start + 1);
        let node = self.relays[i].idx();
        for t in lo..=self.cap {
            if !wake.can_send(node, t) {
                continue;
            }
            let c = self.cost[(t - self.start) as usize];
            let free = c == 0
                || self
                    .tabu
                    .get(&(i as u32, t))
                    .is_none_or(|&until| until <= self.iter);
            let better = match best {
                None => true,
                // Non-tabu beats tabu; then lower cost; equal → reservoir.
                Some((bc, bfree, _)) => {
                    (free, std::cmp::Reverse(c)) > (bfree, std::cmp::Reverse(bc))
                }
            };
            if better {
                best = Some((c, free, t));
                ties = 1;
            } else if let Some((bc, bfree, _)) = best {
                if c == bc && free == bfree {
                    ties += 1;
                    if rng.random_range(0..ties) == 0 {
                        best = Some((c, free, t));
                    }
                }
            }
        }
        best.map(|(_, _, t)| t)
    }

    /// Places relay `i` at `t`, evicting every partner it conflicts with
    /// (PARTIALCOL semantics; evicted relays join the unassigned stack and
    /// their old slot becomes tabu).
    fn place_evicting(&mut self, i: usize, t: Slot, tenure: u64, rng: &mut StdRng) {
        // Dynamic tenure: longer while the unassigned set is larger, plus
        // noise so cycles do not lock in.
        let until =
            self.iter + tenure + self.unassigned.len() as u64 / 2 + rng.random_range(0..3u64);
        let adj = std::mem::take(&mut self.adj[i]);
        for &(j, dl) in &adj {
            let j = j as usize;
            if self.slot_of[j] == t && t <= dl {
                self.remove_from_bucket(j);
                self.slot_of[j] = UNASSIGNED;
                self.unassigned.push(j as u32);
                self.tabu.insert((j as u32, t), until);
            }
        }
        self.adj[i] = adj;
        self.slot_of[i] = t;
        self.buckets[(t - self.start) as usize].push(i as u32);
    }

    /// Removes relay `j` from its slot bucket.
    fn remove_from_bucket(&mut self, j: usize) {
        let off = (self.slot_of[j] - self.start) as usize;
        let bucket = &mut self.buckets[off];
        let at = bucket
            .iter()
            .position(|&x| x as usize == j)
            .expect("assigned relay sits in its bucket");
        bucket.swap_remove(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_anytime, AnytimeConfig, Budget};
    use rand::SeedableRng;
    use wsn_dutycycle::AlwaysAwake;
    use wsn_phy::ProtocolModel;
    use wsn_topology::deploy::SyntheticDeployment;

    /// The greedy seed of a paper instance, frozen, plus what a fresh
    /// freeze of it needs.
    fn frozen(n: usize, seed: u64) -> (Topology, Schedule, ConflictGraphBuilder, PartialSchedule) {
        let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(0),
            ..AnytimeConfig::default()
        };
        let schedule = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg).schedule;
        let mut builder = ConflictGraphBuilder::new();
        let partial =
            PartialSchedule::from_schedule(&schedule, &topo, &ProtocolModel, &mut builder);
        (topo, schedule, builder, partial)
    }

    fn assert_rewinds_to_fresh(
        partial: &mut PartialSchedule,
        topo: &Topology,
        schedule: &Schedule,
        builder: &mut ConflictGraphBuilder,
    ) {
        partial.rewind();
        let fresh = PartialSchedule::from_schedule(schedule, topo, &ProtocolModel, builder);
        assert_eq!(*partial, fresh);
    }

    #[test]
    fn rewind_after_compress_moves_equals_fresh_freeze() {
        let (topo, schedule, mut builder, mut partial) = frozen(80, 2);
        let last = partial.last_occupied().unwrap();
        assert!(last > 0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(partial.begin_compress());
        for _ in 0..50 {
            if partial.compress_step(&AlwaysAwake, 7, &mut rng) != StepOutcome::Progress {
                break;
            }
        }
        assert!(partial.iter > 0, "the pass must have made moves");
        assert!(!partial.tabu.is_empty() && !partial.unassigned.is_empty());
        assert!(
            partial.buckets[last].is_empty(),
            "the pass emptied the last bucket"
        );
        assert_rewinds_to_fresh(&mut partial, &topo, &schedule, &mut builder);
        assert_eq!(partial.last_occupied(), Some(last));
    }
}
