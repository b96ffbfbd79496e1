//! [`PartialSchedule`]: the mutable assignment the tabu/PARTIALCOL local
//! search permutes.
//!
//! A complete broadcast schedule induces an assignment `relay → slot` plus
//! a *frozen* conflict structure: for every pair of relays with a witness
//! other than the source and the dead, the last slot at which they may not
//! share a slot is `deadline(u, v) = max_w receive[w]` over those
//! witnesses `w`, where
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
//! Partner rows are built on demand. A freeze keeps only `O(relays + n)`
//! state: the relays and their slots, a node → relay index, the receive
//! slots and the set of nodes that may still be uninformed. Relay `i`'s
//! row, its partners with their deadlines in ascending relay order, is
//! built the first time a move reads it: the candidates are the relays a
//! [`CellGrid`] over relay positions finds within the model's
//! [`ConflictModel::witness_range`] of it (every relay when the model
//! certifies no range), and each is kept when the model says the pair
//! conflicts. A compression pass moves a handful of relays, so it builds a
//! handful of rows.
//!
//! The frozen structure depends only on the schedule it was frozen from,
//! so one freeze serves every pass against the same incumbent:
//! [`PartialSchedule::rewind`] restores the just-frozen state in
//! `O(relays + window)`, and keeps every row built so far.

use mlbs_core::Schedule;
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::OnceCell;
use std::collections::HashMap;
use wsn_bitset::NodeSet;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_geom::CellGrid;
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

/// Sentinel for "node is not a relay" in the node → relay index.
const NO_RELAY: u32 = u32::MAX;

/// What a partner row is built from (see the module docs).
#[derive(PartialEq, Eq)]
struct Frozen {
    /// Relay ids; index space of everything below.
    relays: Vec<NodeId>,
    /// node → relay index ([`NO_RELAY`] for nodes that never send).
    relay_of: Vec<u32>,
    /// The slot each node was informed in.
    receive: Vec<Slot>,
    /// Everyone but the source and the dead: the nodes the partner test
    /// counts as possibly uninformed.
    unf: NodeSet,
    source: NodeId,
}

/// The topology and model rows are built under. Two bindings are equal
/// when their topology tokens and model fingerprints are.
struct Binding<'a, M> {
    topo: &'a Topology,
    model: &'a M,
}

impl<M: ConflictModel> PartialEq for Binding<'_, M> {
    fn eq(&self, other: &Self) -> bool {
        (self.topo.token(), self.model.fingerprint())
            == (other.topo.token(), other.model.fingerprint())
    }
}

/// The rows built so far. They are a function of the [`Frozen`] state and
/// the [`Binding`], so any two caches compare equal.
struct RowCache {
    /// The grid over relay positions, its cell side the model's witness
    /// range, built with the first row; `None` when the model certifies
    /// no range.
    grid: OnceCell<Option<CellGrid>>,
    /// Partner lists: `adj[i] = [(j, deadline), …]` in ascending `j` —
    /// co-slot placement of `relays[i]` and `relays[j]` at slot `t`
    /// conflicts iff `t ≤ deadline`. Filled on first read.
    adj: Vec<OnceCell<Vec<(u32, Slot)>>>,
}

impl PartialEq for RowCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The frozen conflict structure: what a partner row reads, and the rows
/// built so far.
struct Rows<'a, M> {
    at: Binding<'a, M>,
    frozen: Frozen,
    cache: RowCache,
}

impl<M: ConflictModel> PartialEq for Rows<'_, M> {
    fn eq(&self, other: &Self) -> bool {
        let Rows { at, frozen, cache } = self;
        (at, frozen, cache) == (&other.at, &other.frozen, &other.cache)
    }
}

impl<M: ConflictModel> Rows<'_, M> {
    /// Relay `i`'s partner row, built on first call.
    fn row(&self, i: usize) -> &[(u32, Slot)] {
        self.cache.adj[i].get_or_init(|| self.build_row(i))
    }

    /// Every relay `j` whose co-slot placement with relay `i` the model
    /// calls a conflict, with its deadline: the latest receive slot among
    /// the pair's witnesses that are not dead.
    fn build_row(&self, i: usize) -> Vec<(u32, Slot)> {
        let Binding { topo, model } = self.at;
        let f = &self.frozen;
        let u = f.relays[i];
        let mut row = Vec::new();
        let mut witnesses = Vec::new();
        let mut test = |j: usize| {
            let v = f.relays[j];
            if j == i || !model.conflicts(topo, u, v, &f.unf) {
                return;
            }
            model.collect_witnesses(topo, u, v, &mut witnesses);
            let deadline = witnesses
                .iter()
                .filter(|&&w| w == f.source.0 || f.unf.contains(w as usize))
                .map(|&w| f.receive[w as usize])
                .max()
                .unwrap_or(0);
            row.push((j as u32, deadline));
        };
        let grid = self.cache.grid.get_or_init(|| {
            model.witness_range(topo).map(|range| {
                let ids: Vec<u32> = f.relays.iter().map(|r| r.0).collect();
                CellGrid::build_subset(topo.positions(), &ids, range)
            })
        });
        match grid {
            Some(grid) => {
                // Relays farther apart than the range share no witness.
                let positions = topo.positions();
                let at = positions[u.idx()];
                let range2 = grid.cell() * grid.cell();
                grid.for_each_near(&at, |node| {
                    if positions[node as usize].dist2(&at) <= range2 {
                        test(f.relay_of[node as usize] as usize);
                    }
                });
                row.sort_unstable_by_key(|&(j, _)| j);
            }
            None => (0..f.relays.len()).for_each(test),
        }
        row
    }
}

/// The assignment a compression pass permutes, scratch included.
#[derive(Debug, PartialEq, Eq)]
struct Assignment {
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

/// The mutable per-pass assignment (see the module docs).
///
/// Equality compares what the rows are built from (topology, model,
/// relays, receive slots, uninformed mask) and the whole assignment state,
/// scratch included; built rows are a cache and do not count. A rewound
/// value equals a fresh freeze of the same schedule.
pub struct PartialSchedule<'a, M> {
    /// The frozen conflict structure, rows built on demand.
    rows: Rows<'a, M>,
    state: Assignment,
}

impl<M: ConflictModel> PartialEq for PartialSchedule<'_, M> {
    fn eq(&self, other: &Self) -> bool {
        let PartialSchedule { rows, state } = self;
        (rows, state) == (&other.rows, &other.state)
    }
}

impl<M: ConflictModel> Eq for PartialSchedule<'_, M> {}

impl<M> std::fmt::Debug for PartialSchedule<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartialSchedule")
            .field("relays", &self.rows.frozen.relays)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl<'a, M: ConflictModel> PartialSchedule<'a, M> {
    /// Freezes `schedule` into a move-searchable assignment against the
    /// receive times [`Schedule::receive_slots`] replays, and builds every
    /// partner row, so the call costs what a whole freeze costs. The
    /// search itself freezes without building rows and builds each row
    /// the first time a move reads it. `builder` is not read: rows come
    /// from `model` directly (see the module docs). The parameter stays
    /// so existing callers keep compiling.
    pub fn from_schedule(
        schedule: &Schedule,
        topo: &'a Topology,
        model: &'a M,
        _builder: &mut ConflictGraphBuilder,
    ) -> Self {
        let receive = schedule.receive_slots(topo, model, None);
        let partial = PartialSchedule::freeze(schedule, &receive, topo, model, None);
        for i in 0..partial.relays().len() {
            partial.rows.row(i);
        }
        partial
    }

    /// Freezes `schedule` against known receive times (`receive[w]`, as
    /// [`Schedule::receive_slots`] with `dead` would give them), with dead
    /// nodes masked out of the frozen structure: dead nodes cannot witness
    /// a conflict (they are left out of the partner test and of every
    /// deadline), which is what makes repair-time passes as mobile as the
    /// surviving topology allows. The schedule itself must already be free
    /// of dead senders, and no relay may send twice. `O(relays + n)`: no
    /// partner row is built here.
    pub(crate) fn freeze(
        schedule: &Schedule,
        receive: &[Slot],
        topo: &'a Topology,
        model: &'a M,
        dead: Option<&NodeSet>,
    ) -> Self {
        let n = topo.len();
        let mut relays: Vec<NodeId> = Vec::new();
        let mut slot_of: Vec<Slot> = Vec::new();
        let mut relay_of = vec![NO_RELAY; n];
        for entry in &schedule.entries {
            for &u in &entry.senders {
                debug_assert_eq!(relay_of[u.idx()], NO_RELAY, "relay {u} sends twice");
                relay_of[u.idx()] = relays.len() as u32;
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

        // Partner rows test against "everyone but the source may still be
        // uninformed"; the deadline then narrows each edge to the slots
        // where some witness is actually vulnerable.
        let mut unf = NodeSet::full(n);
        unf.remove(schedule.source.idx());
        if let Some(dead) = dead {
            unf.difference_with(dead);
        }

        let window = (end - start + 1) as usize;
        let mut partial = PartialSchedule {
            rows: Rows {
                at: Binding { topo, model },
                frozen: Frozen {
                    relays,
                    relay_of,
                    receive: receive.to_vec(),
                    unf,
                    source: schedule.source,
                },
                cache: RowCache {
                    grid: OnceCell::new(),
                    adj: vec![OnceCell::new(); k],
                },
            },
            state: Assignment {
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
            },
        };
        // Fills the buckets, so a freeze and a rewind order them alike.
        partial.rewind();
        partial
    }

    /// Restores the state right after the freeze, undoing every pass run
    /// since: the frozen assignment, its slot buckets in ascending relay
    /// order (bucket order feeds the RNG-indexed unassigned stack; the
    /// freeze fills its buckets by calling this), the full window, and
    /// empty tabu and eviction state. `O(relays + window)`. Partner rows
    /// built so far are kept: they depend only on the frozen schedule.
    pub fn rewind(&mut self) {
        self.state
            .slot_of
            .copy_from_slice(&self.state.frozen_slot_of);
        self.state.buckets.iter_mut().for_each(Vec::clear);
        for (i, &t) in self.state.slot_of.iter().enumerate() {
            self.state.buckets[(t - self.state.start) as usize].push(i as u32);
        }
        self.state.cap = self.state.start + self.state.buckets.len() as Slot - 1;
        self.state.tabu.clear();
        self.state.iter = 0;
        for idx in self.state.touched.drain(..) {
            self.state.cost[idx as usize] = 0;
        }
        self.state.unassigned.clear();
    }

    /// The relay list (the assignment's index space).
    pub fn relays(&self) -> &[NodeId] {
        &self.rows.frozen.relays
    }

    /// How many partner rows have been built since the freeze.
    pub(crate) fn partner_rows(&self) -> usize {
        self.rows
            .cache
            .adj
            .iter()
            .filter(|row| row.get().is_some())
            .count()
    }

    /// Current slot of relay `i`, `None` while evicted.
    pub fn slot_of(&self, i: usize) -> Option<Slot> {
        (self.state.slot_of[i] != UNASSIGNED).then_some(self.state.slot_of[i])
    }

    /// Frozen-structure cost of placing relay `i` at slot `t`: the number
    /// of partners already sitting in `t` with a live deadline. `O(degree)`
    /// once relay `i`'s row is built; the first call builds it.
    pub fn move_cost(&self, i: usize, t: Slot) -> u32 {
        self.rows
            .row(i)
            .iter()
            .filter(|&&(j, dl)| self.state.slot_of[j as usize] == t && t <= dl)
            .count() as u32
    }

    /// The last occupied window offset, if any slot is occupied.
    fn last_occupied(&self) -> Option<usize> {
        self.state.buckets.iter().rposition(|b| !b.is_empty())
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
        for i in std::mem::take(&mut self.state.buckets[off]) {
            self.state.slot_of[i as usize] = UNASSIGNED;
            self.state.unassigned.push(i);
        }
        self.state.cap = self.state.start + off as Slot - 1;
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
            self.state.unassigned.push(pick as u32);
            return StepOutcome::Stuck;
        };
        self.place_evicting(pick, t, tenure, rng);
        self.state.iter += 1;
        if self.state.unassigned.is_empty() {
            StepOutcome::Done
        } else {
            StepOutcome::Progress
        }
    }

    /// Extracts the current assignment as legalizer hints (assigned relays
    /// only), slot-keyed.
    pub fn hints(&self) -> Hints {
        let mut hints = Hints::new();
        for (i, &t) in self.state.slot_of.iter().enumerate() {
            if t != UNASSIGNED {
                hints.entry(t).or_default().push(self.rows.frozen.relays[i]);
            }
        }
        for list in hints.values_mut() {
            list.sort_unstable();
        }
        hints
    }

    /// Picks the next relay to place, randomly from the unassigned stack.
    fn pick_unassigned(&mut self, rng: &mut StdRng) -> Option<usize> {
        if self.state.unassigned.is_empty() {
            return None;
        }
        let at = rng.random_range(0..self.state.unassigned.len());
        Some(self.state.unassigned.swap_remove(at) as usize)
    }

    /// The cheapest non-tabu feasible slot for relay `i` (aspiration:
    /// zero-cost slots ignore tabu; if everything is tabu, the cheapest
    /// slot overall). Ties break uniformly at random. `None` when no
    /// wake-feasible slot exists.
    fn best_slot<S: WakeSchedule>(&mut self, i: usize, wake: &S, rng: &mut StdRng) -> Option<Slot> {
        // Bump per-offset costs from the partner list (O(degree)).
        for idx in self.state.touched.drain(..) {
            self.state.cost[idx as usize] = 0;
        }
        for &(j, dl) in self.rows.row(i) {
            let t = self.state.slot_of[j as usize];
            if t != UNASSIGNED && t <= dl {
                let off = (t - self.state.start) as usize;
                if self.state.cost[off] == 0 {
                    self.state.touched.push(off as u32);
                }
                self.state.cost[off] += 1;
            }
        }
        let mut best: Option<(u32, bool, Slot)> = None; // (cost, was_tabu_free, slot)
        let mut ties = 0u32;
        let lo = self.state.earliest[i].max(self.state.start + 1);
        let node = self.rows.frozen.relays[i].idx();
        for t in lo..=self.state.cap {
            if !wake.can_send(node, t) {
                continue;
            }
            let c = self.state.cost[(t - self.state.start) as usize];
            let free = c == 0
                || self
                    .state
                    .tabu
                    .get(&(i as u32, t))
                    .is_none_or(|&until| until <= self.state.iter);
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
        let until = self.state.iter
            + tenure
            + self.state.unassigned.len() as u64 / 2
            + rng.random_range(0..3u64);
        let bucket = (t - self.state.start) as usize;
        for &(j, dl) in self.rows.row(i) {
            if self.state.slot_of[j as usize] == t && t <= dl {
                let at = self.state.buckets[bucket]
                    .iter()
                    .position(|&x| x == j)
                    .expect("assigned relay sits in its bucket");
                self.state.buckets[bucket].swap_remove(at);
                self.state.slot_of[j as usize] = UNASSIGNED;
                self.state.unassigned.push(j);
                self.state.tabu.insert((j, t), until);
            }
        }
        self.state.slot_of[i] = t;
        self.state.buckets[bucket].push(i as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::closed_mask;
    use crate::driver::{run_chain, ChainCtx};
    use crate::legalize::tests::Unrecognized;
    use crate::{solve_anytime, AnytimeConfig, Budget};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use wsn_dutycycle::{AlwaysAwake, WindowedRandom};
    use wsn_geom::Point;
    use wsn_phy::{ProtocolModel, SinrModel, SinrParams};
    use wsn_topology::deploy::SyntheticDeployment;

    /// The partner rows the eager freeze built before rows were built on
    /// demand: the builder's conflict graph over every relay, each pair's
    /// deadline from the builder's cached witness set.
    fn builder_rows<M: ConflictModel>(
        schedule: &Schedule,
        receive: &[Slot],
        topo: &Topology,
        model: &M,
        dead: Option<&NodeSet>,
    ) -> Vec<Vec<(u32, Slot)>> {
        let relays: Vec<NodeId> = schedule
            .entries
            .iter()
            .flat_map(|e| e.senders.iter().copied())
            .collect();
        let k = relays.len();
        let mut unf = NodeSet::full(topo.len());
        unf.remove(schedule.source.idx());
        if let Some(dead) = dead {
            unf.difference_with(dead);
        }
        let mut builder = ConflictGraphBuilder::new();
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
        adj
    }

    /// The greedy seed of a paper instance.
    fn greedy(n: usize, seed: u64) -> (Topology, Schedule) {
        let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(0),
            ..AnytimeConfig::default()
        };
        let schedule = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg).schedule;
        (topo, schedule)
    }

    #[test]
    fn rewind_after_compress_moves_equals_fresh_freeze() {
        let (topo, schedule) = greedy(80, 2);
        let receive = schedule.receive_slots(&topo, &ProtocolModel, None);
        let freeze = || PartialSchedule::freeze(&schedule, &receive, &topo, &ProtocolModel, None);
        let mut partial = freeze();
        let last = partial.last_occupied().unwrap();
        assert!(last > 0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(partial.begin_compress());
        for _ in 0..50 {
            if partial.compress_step(&AlwaysAwake, 7, &mut rng) != StepOutcome::Progress {
                break;
            }
        }
        assert!(partial.state.iter > 0, "the pass must have made moves");
        assert!(!partial.state.tabu.is_empty() && !partial.state.unassigned.is_empty());
        assert!(
            partial.state.buckets[last].is_empty(),
            "the pass emptied the last bucket"
        );
        let built = partial.partner_rows();
        assert!(built > 0 && built < partial.relays().len());
        partial.rewind();
        assert_eq!(partial.partner_rows(), built, "rewind keeps built rows");
        assert_eq!(partial, freeze());
        let mut builder = ConflictGraphBuilder::new();
        let whole = PartialSchedule::from_schedule(&schedule, &topo, &ProtocolModel, &mut builder);
        assert_eq!(whole.partner_rows(), whole.relays().len());
        assert_eq!(partial, whole);
        assert_eq!(partial.last_occupied(), Some(last));
    }

    /// On a chain of nodes every relay was informed one slot before it
    /// sends, so the last relay fits in no earlier slot: the pass is stuck
    /// at its first step, having built that relay's row and no other.
    #[test]
    fn a_pass_stuck_at_its_first_step_builds_one_row() {
        let topo = Topology::unit_disk(
            (0..12).map(|i| Point::new(i as f64 * 0.8, 0.0)).collect(),
            1.0,
        );
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(0),
            ..AnytimeConfig::default()
        };
        let schedule = solve_anytime(&topo, NodeId(0), &AlwaysAwake, &ProtocolModel, &cfg).schedule;
        let receive = schedule.receive_slots(&topo, &ProtocolModel, None);
        let mut partial = PartialSchedule::freeze(&schedule, &receive, &topo, &ProtocolModel, None);
        assert_eq!(partial.partner_rows(), 0, "a freeze builds no row");
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2 {
            partial.rewind();
            assert!(partial.begin_compress());
            let step = partial.compress_step(&AlwaysAwake, 7, &mut rng);
            assert_eq!(step, StepOutcome::Stuck);
            assert_eq!(partial.partner_rows(), 1);
        }
    }

    /// Freezes the greedy seed of `topo` under `wake`, `model` and `dead`,
    /// and checks every row built on demand against [`builder_rows`].
    fn check_rows<S: WakeSchedule, M: ConflictModel>(
        topo: &Topology,
        src: NodeId,
        wake: &S,
        model: &M,
        dead: Option<&NodeSet>,
    ) -> Result<(), TestCaseError> {
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(0),
            ..AnytimeConfig::default()
        };
        let ctx = ChainCtx {
            warm: None,
            dead,
            levels: None,
            lookahead: false,
        };
        let schedule = run_chain(topo, src, wake, model, &cfg, ctx).schedule;
        let receive = schedule.receive_slots(topo, model, dead);
        let partial = PartialSchedule::freeze(&schedule, &receive, topo, model, dead);
        let want = builder_rows(&schedule, &receive, topo, model, dead);
        prop_assert_eq!(want.len(), partial.relays().len());
        prop_assert!(want.iter().any(|row| !row.is_empty()));
        for (i, row) in want.iter().enumerate() {
            prop_assert_eq!(partial.rows.row(i), row.as_slice(), "relay {}", i);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Rows built on demand equal the builder's eager rows: sync and
        /// duty, dead masks, under the protocol model on its own path, the
        /// same model under another fingerprint, and calibrated SINR.
        #[test]
        fn on_demand_rows_match_the_builder(
            seed in 0..500u64,
            n in 40usize..300,
            rate in prop::sample::select(vec![1u32, 4, 10]),
            dead_every in prop::sample::select(vec![0usize, 7, 23]),
            model in 0u8..3,
        ) {
            let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
            let dead = (dead_every > 0)
                .then(|| closed_mask(&topo, src, (seed as usize % 5..n).step_by(dead_every)));
            let dead = dead.as_ref();
            fn under<M: ConflictModel>(
                topo: &Topology,
                src: NodeId,
                rate: u32,
                seed: u64,
                model: &M,
                dead: Option<&NodeSet>,
            ) -> Result<(), TestCaseError> {
                if rate == 1 {
                    check_rows(topo, src, &AlwaysAwake, model, dead)
                } else {
                    let wake = WindowedRandom::new(topo.len(), rate, seed ^ 0xD0);
                    check_rows(topo, src, &wake, model, dead)
                }
            }
            match model {
                0 => under(&topo, src, rate, seed, &ProtocolModel, dead)?,
                1 => under(&topo, src, rate, seed, &Unrecognized, dead)?,
                _ => {
                    let sinr = SinrModel::new(SinrParams::calibrated(topo.radius(), 3.0, 1.5), &topo);
                    under(&topo, src, rate, seed, &sinr, dead)?
                }
            }
        }
    }
}
