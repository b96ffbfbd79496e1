//! The legalizer: turns per-node slot *hints* into a valid, complete
//! broadcast schedule by slot-by-slot replay.
//!
//! Every schedule the anytime tier emits comes out of this function, so
//! correctness lives in exactly one place: at each slot the hinted senders
//! are admitted first (each checked against the already-accepted set under
//! the real conflict model), then the frontier greedily fills the remaining
//! capacity. The local search upstream may therefore speculate on *frozen*
//! conflict structure; whatever it proposes is re-simulated here before it
//! can become a result.
//!
//! The frontier is ranked by descending *reach*, then by descending
//! uninformed-degree (plus priority noise on restarts), then by ascending
//! id. A relay's reach ([`Levels::reach`]) is the deepest BFS level among
//! the nodes it lies on a shortest path to — the paper's "hop distance to
//! the edge of network of the unaccomplished relay work" — so the relays
//! on the paths to the farthest nodes go first. The search chain computes it
//! once per chain, in one reverse sweep of the BFS it already runs for the
//! depth bound, and only for synchronous chains: under duty cycles a
//! relay's hop distance says little about when its subtree wakes, so duty
//! chains rank by uninformed-degree alone.
//!
//! Receptions under the protocol model come from the claim list: admission
//! stamps every uninformed neighbor of an accepted sender, and since no two
//! accepted senders share one, those claimed nodes are exactly the slot's
//! receivers. Every other model resolves them with
//! [`ConflictModel::resolve_receptions`]. Either way each result passes
//! [`Schedule::verify_covering_with_model`] — the replay that checks it
//! resolves receptions under the real model — and the driver runs that
//! check on every candidate before it may become the incumbent.
//!
//! Scale notes (10k–100k nodes): all per-slot state is degree-local —
//! frontier counters instead of bitset subtractions, a slot-stamped claim
//! array for the protocol-model admission test — so one legalization costs
//! `O(E)` plus the per-slot frontier sorts. The legalizer also keeps the
//! slot in which each node was informed, so the driver can freeze its
//! incumbent without replaying it.

use mlbs_core::{Schedule, ScheduleEntry};
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use wsn_bitset::NodeSet;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_phy::{ConflictModel, ProtocolModel};
use wsn_topology::{metrics, NodeId, Topology};

/// Per-slot sender hints, keyed by absolute slot.
pub(crate) type Hints = BTreeMap<Slot, Vec<NodeId>>;

/// What a legalization reads besides its hints and priority noise: the
/// instance, the churn mask and the frontier's depth rank. A chain builds
/// it once and shares it by borrow with its lookahead helper.
pub(crate) struct Instance<'a, S, M> {
    pub(crate) topo: &'a Topology,
    pub(crate) source: NodeId,
    pub(crate) wake: &'a S,
    pub(crate) model: &'a M,
    /// Slot from which the source may first transmit.
    pub(crate) start_from: Slot,
    /// Nodes removed from the broadcast: they never transmit, are owed no
    /// coverage, and don't witness conflicts — the repair tier's churn
    /// mask. Every node the mask leaves alive must be reachable from the
    /// source through alive nodes.
    pub(crate) dead: Option<&'a NodeSet>,
    /// [`Levels::reach`] per node, the frontier's first sort key: relays on
    /// the paths to the farthest nodes go first. `None` ranks by
    /// uninformed-degree alone.
    pub(crate) reach: Option<&'a [u32]>,
}

/// BFS levels from the source over the alive nodes, with the order the
/// search visited them in.
pub(crate) struct Levels {
    /// Hop level per node; [`metrics::UNREACHABLE`] for masked nodes and
    /// the alive nodes the mask cuts off.
    pub(crate) hops: Vec<u32>,
    /// Every reached node, in visit order, so by nondecreasing level.
    order: Vec<NodeId>,
}

impl Levels {
    /// A queue BFS from `source` that skips `dead` nodes; the visit order
    /// is its queue.
    pub(crate) fn new(topo: &Topology, source: NodeId, dead: Option<&NodeSet>) -> Levels {
        let mut hops = vec![metrics::UNREACHABLE; topo.len()];
        let mut order = Vec::with_capacity(topo.len());
        if dead.is_some_and(|dead| dead.contains(source.idx())) {
            return Levels { hops, order };
        }
        hops[source.idx()] = 0;
        order.push(source);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let next = hops[u.idx()] + 1;
            for &v in topo.neighbors(u) {
                if hops[v.idx()] == metrics::UNREACHABLE
                    && !dead.is_some_and(|dead| dead.contains(v.idx()))
                {
                    hops[v.idx()] = next;
                    order.push(v);
                }
            }
        }
        Levels { hops, order }
    }

    /// Number of nodes the search reached.
    pub(crate) fn reached(&self) -> usize {
        self.order.len()
    }

    /// The deepest level: the BFS-depth lower bound on latency.
    pub(crate) fn depth(&self) -> u32 {
        self.order.last().map_or(0, |u| self.hops[u.idx()])
    }

    /// `reach(u)`: the deepest level among the nodes `u` lies on a shortest
    /// path to — the hop distance to the edge of the network of the relay
    /// work `u` can still advance. It is `max(hops(u), max reach(c))` over
    /// the neighbours `c` one level deeper, pulled in one reverse sweep of
    /// the visit order, so `O(E)`. Unreached nodes read 0.
    pub(crate) fn reach(&self, topo: &Topology) -> Vec<u32> {
        let mut reach = vec![0; topo.len()];
        for &u in self.order.iter().rev() {
            let level = self.hops[u.idx()];
            let mut deepest = level;
            for &c in topo.neighbors(u) {
                if self.hops[c.idx()] == level + 1 {
                    deepest = deepest.max(reach[c.idx()]);
                }
            }
            reach[u.idx()] = deepest;
        }
        reach
    }
}

/// Reusable scratch for repeated legalizations of one topology.
pub(crate) struct Legalizer {
    informed: NodeSet,
    uninformed: NodeSet,
    /// Number of *uninformed* neighbors per node, maintained by counter.
    useful: Vec<u32>,
    /// Informed, not-yet-transmitted nodes (lazily pruned).
    frontier: Vec<NodeId>,
    /// Nodes that already transmitted (at most one transmission each).
    sent: Vec<bool>,
    /// Protocol fast path: `claimed[w] == stamp` ⇔ an accepted sender of
    /// the current slot covers uninformed `w`.
    claimed: Vec<u64>,
    stamp: u64,
    /// The current slot's receivers. On the protocol path admission fills
    /// it with every claimed node; otherwise it is copied from
    /// `resolve_receptions`.
    claims: Vec<u32>,
    /// Scratch sender set handed to `resolve_receptions`.
    senders: NodeSet,
    /// Per-slot candidate order: `!rank << 32 | node`, where `rank` packs
    /// reach above priority (or is priority alone when they do not fit in
    /// 32 bits together), so an ascending sort ranks by descending reach,
    /// then descending priority, then ascending id.
    order: Vec<u64>,
    accepted: Vec<NodeId>,
    /// Slot in which each node became informed during the last
    /// legalization (its start slot for the source and masked nodes).
    receive: Vec<Slot>,
}

impl Legalizer {
    pub(crate) fn new(n: usize) -> Legalizer {
        Legalizer {
            informed: NodeSet::new(n),
            uninformed: NodeSet::new(n),
            useful: vec![0; n],
            frontier: Vec::new(),
            sent: vec![false; n],
            claimed: vec![0; n],
            stamp: 0,
            claims: Vec::new(),
            senders: NodeSet::new(n),
            order: Vec::new(),
            accepted: Vec::new(),
            receive: Vec::new(),
        }
    }

    /// Hands the last legalization's receive slots to `into`, taking its
    /// old buffer as scratch: the slots [`Schedule::receive_slots`] would
    /// replay from the returned schedule, without the replay.
    pub(crate) fn take_receive_slots(&mut self, into: &mut Vec<Slot>) {
        std::mem::swap(&mut self.receive, into);
    }

    /// Builds a complete schedule of `inst`. `hints` senders are admitted
    /// first in their hinted slots (silently skipped when stale — not yet
    /// informed, asleep, already transmitted, or conflicting); the frontier
    /// fills the rest greedily by descending [`Instance::reach`] when the
    /// chain has one (synchronous chains; duty-cycled ones have none), then
    /// by descending uninformed-degree plus `jitter` random priority noise
    /// when diversifying, then by ascending id.
    ///
    /// # Panics
    ///
    /// Panics when the topology (restricted to alive nodes) is
    /// disconnected (broadcast cannot complete), or when the source is in
    /// `inst.dead`.
    pub(crate) fn legalize<S: WakeSchedule, M: ConflictModel>(
        &mut self,
        inst: &Instance<'_, S, M>,
        hints: &Hints,
        jitter: u32,
        rng: &mut StdRng,
    ) -> Schedule {
        self.legalize_until(inst, hints, jitter, rng, None)
            .expect("a legalization without a stop flag completes")
    }

    /// [`Legalizer::legalize`] that gives up, returning `None`, when
    /// `stop` is raised: the flag is read once per slot. The receive slots
    /// of a stopped run are meaningless.
    pub(crate) fn legalize_until<S: WakeSchedule, M: ConflictModel>(
        &mut self,
        inst: &Instance<'_, S, M>,
        hints: &Hints,
        jitter: u32,
        rng: &mut StdRng,
        stop: Option<&AtomicBool>,
    ) -> Option<Schedule> {
        let &Instance {
            topo,
            source,
            wake,
            model,
            start_from,
            dead,
            reach,
        } = inst;
        self.reset(topo, source, dead);
        // Priorities only fall from their start, so this many bits hold
        // every one. Reach goes above them in one 32-bit rank unless the
        // two do not fit together (depth times degree near 2^32); then the
        // rank is the priority alone and the sort reads reach beside it.
        let top_priority = self.useful.iter().copied().max().unwrap_or(0) + jitter;
        let priority_bits = u32::BITS - top_priority.leading_zeros();
        // The source lies on a shortest path to every node: its reach is
        // the largest.
        let reach_bits = reach.map_or(0, |reach| u32::BITS - reach[source.idx()].leading_zeros());
        let rank_reach = reach.filter(|_| reach_bits + priority_bits <= u32::BITS);
        let sort_reach = reach.filter(|_| rank_reach.is_none());
        let protocol = model.fingerprint() == ProtocolModel.fingerprint();
        let witness_range = model.witness_range(topo);

        let t_s = wake.next_send(source.idx(), start_from);
        self.receive.clear();
        self.receive.resize(topo.len(), t_s);
        let mut entries: Vec<ScheduleEntry> = Vec::new();
        let mut t = t_s;

        while !self.uninformed.is_empty() {
            if stop.is_some_and(|stop| stop.load(Ordering::Relaxed)) {
                return None;
            }
            self.accepted.clear();
            self.claims.clear();
            self.stamp += 1;

            // 1. Hinted senders first, in hint order.
            if let Some(list) = hints.get(&t) {
                for &u in list {
                    self.try_accept(topo, model, wake, u, t, protocol, witness_range);
                }
            }

            // 2. Greedy frontier fill by descending reach, then
            // uninformed-degree. One pass prunes the frontier and ranks its
            // awake members.
            self.order.clear();
            let mut kept = 0;
            for i in 0..self.frontier.len() {
                let u = self.frontier[i];
                if self.sent[u.idx()] || self.useful[u.idx()] == 0 {
                    continue;
                }
                self.frontier[kept] = u;
                kept += 1;
                if wake.can_send(u.idx(), t) {
                    let noise = if jitter > 0 {
                        rng.random_range(0..=jitter)
                    } else {
                        0
                    };
                    let priority = self.useful[u.idx()] + noise;
                    let rank = rank_reach.map_or(priority, |reach| {
                        // Fits: reach_bits + priority_bits <= 32.
                        (u64::from(reach[u.idx()]) << priority_bits | u64::from(priority)) as u32
                    });
                    self.order.push(u64::from(!rank) << 32 | u64::from(u.0));
                }
            }
            self.frontier.truncate(kept);
            assert!(
                !self.frontier.is_empty(),
                "broadcast cannot complete: disconnected topology"
            );
            match sort_reach {
                None => self.order.sort_unstable(),
                Some(reach) => self
                    .order
                    .sort_unstable_by_key(|&key| (Reverse(reach[key as u32 as usize]), key)),
            }
            let order = std::mem::take(&mut self.order);
            for &key in &order {
                // The ranking pass already checked everything but conflicts.
                self.admit(topo, model, NodeId(key as u32), protocol, witness_range);
            }
            self.order = order;

            if self.accepted.is_empty() {
                // Nobody both awake and admissible: jump to the next slot
                // in which some frontier relay wakes (the back-off wait).
                t = self
                    .frontier
                    .iter()
                    .map(|u| wake.next_send(u.idx(), t + 1))
                    .min()
                    .expect("frontier non-empty");
                continue;
            }

            // 3. Receptions. Protocol admissions are pairwise
            // conflict-free, so the claimed nodes are exactly the
            // receivers. Other models resolve receptions under the real
            // model; for models whose group resolution is strictly
            // stronger (additive-interference corner cases), drop late
            // acceptances until the slot is clean — a lone sender always
            // delivers, so this terminates.
            if protocol {
                self.claims.sort_unstable();
            } else {
                self.senders.clear();
                for &u in &self.accepted {
                    self.senders.insert(u.idx());
                }
                let outcome = loop {
                    let outcome = model.resolve_receptions(topo, &self.senders, &self.uninformed);
                    if outcome.collided.is_empty() {
                        break outcome;
                    }
                    let dropped = self.accepted.pop().expect("accepted non-empty");
                    self.senders.remove(dropped.idx());
                    assert!(
                        !self.accepted.is_empty(),
                        "a lone sender cannot collide under a sane model"
                    );
                };
                self.claims
                    .extend(outcome.received.iter().map(|w| w as u32));
            }

            for &u in &self.accepted {
                self.sent[u.idx()] = true;
            }
            for &w in &self.claims {
                let w = w as usize;
                self.informed.insert(w);
                self.uninformed.remove(w);
                self.receive[w] = t;
                for &v in topo.neighbors(NodeId(w as u32)) {
                    // Dead neighbors had their counter forced to zero.
                    if self.useful[v.idx()] > 0 {
                        self.useful[v.idx()] -= 1;
                    }
                }
            }
            // Push freshly informed nodes that still have someone to serve.
            for &w in &self.claims {
                if self.useful[w as usize] > 0 {
                    self.frontier.push(NodeId(w));
                }
            }
            // The entry gets a list of its exact length: every schedule the
            // chain keeps holds it, while `accepted` keeps its buffer.
            self.accepted.sort_unstable();
            entries.push(ScheduleEntry::new(t, self.accepted.clone()));
            t += 1;
        }

        Some(Schedule {
            source,
            start: t_s,
            entries,
            repeats: Vec::new(),
        })
    }

    /// Admits `u` into the current slot's sender set when it is informed,
    /// awake, useful, has not yet transmitted, and conflicts with no
    /// already-accepted sender under `model`.
    #[allow(clippy::too_many_arguments)]
    fn try_accept<S: WakeSchedule, M: ConflictModel>(
        &mut self,
        topo: &Topology,
        model: &M,
        wake: &S,
        u: NodeId,
        t: Slot,
        protocol: bool,
        witness_range: Option<f64>,
    ) {
        if self.sent[u.idx()]
            || !self.informed.contains(u.idx())
            || self.useful[u.idx()] == 0
            || !wake.can_send(u.idx(), t)
        {
            return;
        }
        self.admit(topo, model, u, protocol, witness_range);
    }

    /// The conflict half of [`Legalizer::try_accept`], for a candidate
    /// already known to be informed, awake, useful and unsent.
    fn admit<M: ConflictModel>(
        &mut self,
        topo: &Topology,
        model: &M,
        u: NodeId,
        protocol: bool,
        witness_range: Option<f64>,
    ) {
        if protocol {
            // Protocol conflicts are exactly "shared uninformed neighbor":
            // the stamped claim array decides in O(deg) and doubles as the
            // update, so admission over a whole slot is linear in the
            // accepted senders' degrees. Only uninformed nodes are ever
            // stamped, so a current stamp alone marks a conflict.
            for &w in topo.neighbors(u) {
                if self.claimed[w.idx()] == self.stamp {
                    return;
                }
            }
            for &w in topo.neighbors(u) {
                if self.uninformed.contains(w.idx()) {
                    self.claimed[w.idx()] = self.stamp;
                    self.claims.push(w.0);
                }
            }
        } else {
            let positions = topo.positions();
            for &s in &self.accepted {
                if let Some(range) = witness_range {
                    if positions[u.idx()].dist(&positions[s.idx()]) > range {
                        continue; // provably witness-free pair
                    }
                }
                if model.conflicts(topo, u, s, &self.uninformed) {
                    return;
                }
            }
        }
        self.accepted.push(u);
    }

    fn reset(&mut self, topo: &Topology, source: NodeId, dead: Option<&NodeSet>) {
        let n = topo.len();
        self.informed.clear();
        self.informed.insert(source.idx());
        if let Some(dead) = dead {
            assert!(!dead.contains(source.idx()), "the broadcast source died");
            // Dead nodes are treated as already informed and already done
            // transmitting: they never enter the frontier, are owed no
            // coverage, and stop counting as uninformed witnesses.
            self.informed.union_with(dead);
        }
        self.uninformed = self.informed.complement();
        for u in 0..n {
            self.useful[u] = topo.degree(NodeId(u as u32)) as u32;
            self.sent[u] = false;
        }
        for &v in topo.neighbors(source) {
            self.useful[v.idx()] -= 1;
        }
        if let Some(dead) = dead {
            for u in dead.iter() {
                self.sent[u] = true;
                self.useful[u] = 0;
                if u != source.idx() {
                    for &v in topo.neighbors(NodeId(u as u32)) {
                        // Each neighbor loses `u` as an uninformed neighbor
                        // (the source's neighborhood was already settled).
                        if self.useful[v.idx()] > 0 {
                            self.useful[v.idx()] -= 1;
                        }
                    }
                }
            }
        }
        self.frontier.clear();
        self.frontier.push(source);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::driver::tests::{closed_mask, same_search};
    use crate::partial::PartialSchedule;
    use crate::{reschedule, solve_anytime, AnytimeConfig, Budget, ChurnDelta};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use wsn_dutycycle::{AlwaysAwake, WindowedRandom};
    use wsn_geom::Point;
    use wsn_interference::ConflictGraphBuilder;
    use wsn_phy::{ReceptionOutcome, WitnessLocality};
    use wsn_topology::deploy::SyntheticDeployment;

    /// The protocol model under another fingerprint: every method forwards
    /// to [`ProtocolModel`], so the legalizer takes its generic path
    /// (`resolve_receptions` after admission) with the same semantics.
    #[derive(Clone, Copy)]
    pub(crate) struct Unrecognized;

    impl ConflictModel for Unrecognized {
        fn fingerprint(&self) -> u64 {
            !ProtocolModel.fingerprint()
        }
        fn channels(&self) -> u32 {
            ProtocolModel.channels()
        }
        fn locality(&self) -> WitnessLocality {
            ProtocolModel.locality()
        }
        fn conflicts(&self, topo: &Topology, u: NodeId, v: NodeId, unf: &NodeSet) -> bool {
            ProtocolModel.conflicts(topo, u, v, unf)
        }
        fn collect_witnesses(&self, topo: &Topology, u: NodeId, v: NodeId, out: &mut Vec<u32>) {
            ProtocolModel.collect_witnesses(topo, u, v, out)
        }
        fn resolve_receptions(
            &self,
            topo: &Topology,
            senders: &NodeSet,
            uninformed: &NodeSet,
        ) -> ReceptionOutcome {
            ProtocolModel.resolve_receptions(topo, senders, uninformed)
        }
        fn prefers_witness_cache(&self) -> bool {
            ProtocolModel.prefers_witness_cache()
        }
        fn witness_range(&self, topo: &Topology) -> Option<f64> {
            ProtocolModel.witness_range(topo)
        }
    }

    #[test]
    fn claim_list_receptions_match_the_generic_path() {
        let config = AnytimeConfig {
            budget: Budget::Iterations(12_000),
            ..AnytimeConfig::default()
        };
        for (n, seed) in [(150, 4u64), (220, 9)] {
            let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
            let wake = WindowedRandom::new(n, 6, seed);
            let claims = solve_anytime(&topo, src, &wake, &ProtocolModel, &config);
            let generic = solve_anytime(&topo, src, &wake, &Unrecognized, &config);
            assert!(
                claims.restarts > 0,
                "the budget must reach jittered restarts"
            );
            same_search(&claims, &generic);

            let dead: Vec<NodeId> = (1..n as u32)
                .step_by(17)
                .map(NodeId)
                .filter(|&u| u != src)
                .collect();
            let delta = ChurnDelta::deaths(dead);
            let old = &claims.schedule;
            let a = reschedule(&topo, src, &wake, &ProtocolModel, old, &delta, &config);
            let b = reschedule(&topo, src, &wake, &Unrecognized, old, &delta, &config);
            assert!(a.mask.len() > 1, "the repair must mask nodes");
            assert_eq!(a.mask, b.mask);
            same_search(&a.outcome, &b.outcome);
        }
    }

    /// Path 0–1–2–3–4 with a longer side branch 1–5–6–7–8 off node 1.
    fn branched_path() -> Topology {
        let main = (0..5).map(|i| Point::new(i as f64 * 0.8, 0.0));
        let branch = (1..5).map(|j| Point::new(0.8, j as f64 * 0.8));
        Topology::unit_disk(main.chain(branch).collect(), 1.0)
    }

    #[test]
    fn reach_follows_the_deepest_branch() {
        let topo = branched_path();
        let levels = Levels::new(&topo, NodeId(0), None);
        assert_eq!(levels.hops, [0, 1, 2, 3, 4, 2, 3, 4, 5]);
        assert_eq!(levels.depth(), 5);
        // Node 1 lies on the shortest paths into both arms and takes the
        // deeper one's level; each arm keeps its own.
        assert_eq!(levels.reach(&topo), [5, 5, 4, 4, 4, 5, 5, 5, 5]);

        // Node 7 dies and cuts node 8 off: the branch now ends at level 3,
        // below the main path's end.
        let mut dead = NodeSet::new(topo.len());
        dead.insert(7);
        let levels = Levels::new(&topo, NodeId(0), Some(&dead));
        assert_eq!(levels.reached(), 7);
        assert_eq!(levels.hops[7..], [metrics::UNREACHABLE; 2]);
        assert_eq!(levels.reach(&topo), [4, 4, 4, 4, 4, 3, 3, 0, 0]);
    }

    #[test]
    fn the_rank_lets_the_deeper_relay_send_first() {
        // The source informs relays 1 and 2, which share the uninformed
        // node 3, so only one of them sends in slot 2. Relay 2 has three
        // uninformed neighbours (3, 4, 5) and relay 1 two (3, 6), but only
        // node 6 leads on to the deepest node, 7.
        let topo = Topology::unit_disk(
            vec![
                Point::new(0.0, 0.0),
                Point::new(-0.45, 0.8),
                Point::new(0.45, 0.8),
                Point::new(0.0, 1.3),
                Point::new(0.45, 1.75),
                Point::new(1.25, 1.2),
                Point::new(-0.9, 1.6),
                Point::new(-0.9, 2.55),
            ],
            1.0,
        );
        let levels = Levels::new(&topo, NodeId(0), None);
        assert_eq!(levels.hops, [0, 1, 1, 2, 2, 2, 2, 3]);
        let reach = levels.reach(&topo);
        assert_eq!((reach[1], reach[2]), (3, 2));
        let mut inst = Instance {
            topo: &topo,
            source: NodeId(0),
            wake: &AlwaysAwake,
            model: &ProtocolModel,
            start_from: 1,
            dead: None,
            reach: None,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut legalizer = Legalizer::new(topo.len());
        let by_degree = legalizer.legalize(&inst, &Hints::new(), 0, &mut rng);
        assert_eq!(by_degree.entries[1].senders, [NodeId(2)]);
        assert_eq!(by_degree.latency(), 4);
        inst.reach = Some(&reach);
        let ranked = legalizer.legalize(&inst, &Hints::new(), 0, &mut rng);
        assert_eq!(ranked.entries[1].senders, [NodeId(1)]);
        assert_eq!(ranked.latency(), 3);
        ranked.verify(&topo, &AlwaysAwake).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// `reach` against brute force: the deepest level among the nodes
        /// each node lies on a shortest path to, from a BFS out of every
        /// node over the alive nodes. With and without dead masks, and the
        /// source reaches the depth.
        #[test]
        fn reach_matches_brute_force(
            seed in 0..500u64,
            n in 40usize..300,
            dead_every in prop::sample::select(vec![0usize, 5, 13]),
        ) {
            let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
            let dead = (dead_every > 0)
                .then(|| closed_mask(&topo, src, (seed as usize % 3..n).step_by(dead_every.max(1))));
            let bfs = |from: NodeId| match dead.as_ref() {
                None => metrics::bfs_hops(&topo, from),
                Some(mask) => metrics::bfs_hops_masked(&topo, from, mask),
            };
            let levels = Levels::new(&topo, src, dead.as_ref());
            let hops = bfs(src);
            prop_assert_eq!(&levels.hops, &hops);
            let reach = levels.reach(&topo);
            let depth = hops.iter().filter(|&&h| h != metrics::UNREACHABLE).max().copied();
            prop_assert_eq!(Some(levels.depth()), depth);
            prop_assert_eq!(reach[src.idx()], levels.depth());
            for u in topo.nodes().filter(|u| hops[u.idx()] != metrics::UNREACHABLE) {
                let from_u = bfs(u);
                let brute = topo
                    .nodes()
                    .filter(|w| {
                        from_u[w.idx()] != metrics::UNREACHABLE
                            && hops[u.idx()] + from_u[w.idx()] == hops[w.idx()]
                    })
                    .map(|w| hops[w.idx()])
                    .max();
                prop_assert_eq!(Some(reach[u.idx()]), brute, "node {}", u);
            }
        }

        /// Reach too wide to share the 32-bit rank with priority is sorted
        /// beside the key, into the same order as a packed rank.
        #[test]
        fn wide_reach_ranks_as_packed_reach(
            seed in 0..500u64,
            n in 40usize..300,
            jitter in 0u32..4,
        ) {
            let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
            let reach = Levels::new(&topo, src, None).reach(&topo);
            let wide: Vec<u32> = reach.iter().map(|&r| r + (1 << 31)).collect();
            let legalize = |reach: &[u32]| {
                let inst = Instance {
                    topo: &topo,
                    source: src,
                    wake: &AlwaysAwake,
                    model: &ProtocolModel,
                    start_from: 1,
                    dead: None,
                    reach: Some(reach),
                };
                let mut rng = StdRng::seed_from_u64(seed);
                Legalizer::new(n).legalize(&inst, &Hints::new(), jitter, &mut rng)
            };
            prop_assert_eq!(legalize(&reach).entries, legalize(&wide).entries);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The slots the legalizer hands the driver's freeze equal the ones
        /// `Schedule::receive_slots` replays, so the chain's freeze equals
        /// the public replaying one: with duty cycles, dead masks, hints
        /// and jitter, on both reception paths.
        #[test]
        fn legalizer_receive_slots_match_the_replay(
            seed in 0..500u64,
            n in 50usize..300,
            rate in prop::sample::select(vec![1u32, 4, 10]),
            dead_every in prop::sample::select(vec![0usize, 7, 23]),
            jitter in 0u32..4,
            generic in 0u8..2,
            ranked in 0u8..2,
        ) {
            let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
            let wake = WindowedRandom::new(n, rate, seed ^ 0xD0);
            let dead = (dead_every > 0)
                .then(|| closed_mask(&topo, src, (seed as usize % 5..n).step_by(dead_every.max(1))));
            // The depth rank is the chain's choice; the legalizer must
            // stay correct under it whatever the wake schedule.
            let reach = (ranked == 1).then(|| Levels::new(&topo, src, dead.as_ref()).reach(&topo));
            let inst = Instance {
                topo: &topo,
                source: src,
                wake: &wake,
                model: &ProtocolModel,
                start_from: 1,
                dead: dead.as_ref(),
                reach: reach.as_deref(),
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut legalizer = Legalizer::new(n);
            let mut hints = Hints::new();
            // A first pass seeds hints for the second.
            let first = legalizer.legalize(&inst, &hints, 0, &mut rng);
            for entry in &first.entries {
                hints.insert(entry.slot, entry.senders.iter().rev().copied().collect());
            }
            let schedule = if generic == 1 {
                let generic = Instance {
                    topo: &topo,
                    source: src,
                    wake: &wake,
                    model: &Unrecognized,
                    start_from: 1,
                    dead: dead.as_ref(),
                    reach: reach.as_deref(),
                };
                legalizer.legalize(&generic, &hints, jitter, &mut rng)
            } else {
                legalizer.legalize(&inst, &hints, jitter, &mut rng)
            };
            prop_assert!(schedule
                .verify_covering_with_model(&topo, &wake, &ProtocolModel, dead.as_ref())
                .is_ok());
            let mut kept = Vec::new();
            legalizer.take_receive_slots(&mut kept);
            let replayed = schedule.receive_slots(&topo, &ProtocolModel, dead.as_ref());
            prop_assert_eq!(&kept, &replayed);

            let chain = PartialSchedule::freeze(&schedule, &kept, &topo, &ProtocolModel, dead.as_ref());
            let fresh = match dead.as_ref() {
                None => PartialSchedule::from_schedule(
                    &schedule, &topo, &ProtocolModel, &mut ConflictGraphBuilder::new(),
                ),
                Some(mask) => PartialSchedule::freeze(&schedule, &replayed, &topo, &ProtocolModel, Some(mask)),
            };
            prop_assert!(chain == fresh, "the chain's freeze differs from the replayed one");
        }
    }
}
