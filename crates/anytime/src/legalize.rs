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
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use wsn_bitset::NodeSet;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_phy::{ConflictModel, ProtocolModel};
use wsn_topology::{NodeId, Topology};

/// Per-slot sender hints, keyed by absolute slot.
pub(crate) type Hints = BTreeMap<Slot, Vec<NodeId>>;

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
    /// Per-slot candidate order: `(!priority << 32) | node`, so an
    /// ascending sort ranks by descending priority, then ascending id.
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

    /// Builds a complete schedule. `hints` senders are admitted first in
    /// their hinted slots (silently skipped when stale — not yet informed,
    /// asleep, already transmitted, or conflicting); the frontier fills the
    /// rest greedily by descending uninformed-degree, plus `jitter` random
    /// priority noise when diversifying.
    ///
    /// `dead`, when given, removes those nodes from the broadcast: they
    /// never transmit, are owed no coverage, and don't witness conflicts —
    /// the repair tier's churn mask. Every node the mask leaves alive must
    /// be reachable from the source through alive nodes.
    ///
    /// # Panics
    ///
    /// Panics when the topology (restricted to alive nodes) is
    /// disconnected (broadcast cannot complete), or when the source is in
    /// `dead`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn legalize<S: WakeSchedule, M: ConflictModel>(
        &mut self,
        topo: &Topology,
        source: NodeId,
        wake: &S,
        model: &M,
        hints: &Hints,
        start_from: Slot,
        jitter: u32,
        dead: Option<&NodeSet>,
        rng: &mut StdRng,
    ) -> Schedule {
        self.legalize_until(
            topo, source, wake, model, hints, start_from, jitter, dead, rng, None,
        )
        .expect("a legalization without a stop flag completes")
    }

    /// [`Legalizer::legalize`] that gives up, returning `None`, when
    /// `stop` is raised: the flag is read once per slot. The receive slots
    /// of a stopped run are meaningless.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn legalize_until<S: WakeSchedule, M: ConflictModel>(
        &mut self,
        topo: &Topology,
        source: NodeId,
        wake: &S,
        model: &M,
        hints: &Hints,
        start_from: Slot,
        jitter: u32,
        dead: Option<&NodeSet>,
        rng: &mut StdRng,
        stop: Option<&AtomicBool>,
    ) -> Option<Schedule> {
        self.reset(topo, source, dead);
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

            // 2. Greedy frontier fill by descending uninformed-degree. One
            // pass prunes the frontier and ranks its awake members.
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
                    self.order.push(u64::from(!priority) << 32 | u64::from(u.0));
                }
            }
            self.frontier.truncate(kept);
            assert!(
                !self.frontier.is_empty(),
                "broadcast cannot complete: disconnected topology"
            );
            self.order.sort_unstable();
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
            let mut senders = std::mem::take(&mut self.accepted);
            senders.sort_unstable();
            entries.push(ScheduleEntry::new(t, senders));
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
mod tests {
    use super::*;
    use crate::driver::tests::{closed_mask, same_search};
    use crate::partial::PartialSchedule;
    use crate::{reschedule, solve_anytime, AnytimeConfig, Budget, ChurnDelta};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use wsn_dutycycle::WindowedRandom;
    use wsn_interference::ConflictGraphBuilder;
    use wsn_phy::{ReceptionOutcome, WitnessLocality};
    use wsn_topology::deploy::SyntheticDeployment;

    /// The protocol model under another fingerprint: every method forwards
    /// to [`ProtocolModel`], so the legalizer takes its generic path
    /// (`resolve_receptions` after admission) with the same semantics.
    #[derive(Clone, Copy)]
    struct Unrecognized;

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
        ) {
            let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
            let wake = WindowedRandom::new(n, rate, seed ^ 0xD0);
            let dead = (dead_every > 0)
                .then(|| closed_mask(&topo, src, (seed as usize % 5..n).step_by(dead_every.max(1))));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut legalizer = Legalizer::new(n);
            let mut hints = Hints::new();
            // A first pass seeds hints for the second.
            let first = legalizer.legalize(
                &topo, src, &wake, &ProtocolModel, &hints, 1, 0, dead.as_ref(), &mut rng,
            );
            for entry in &first.entries {
                hints.insert(entry.slot, entry.senders.iter().rev().copied().collect());
            }
            let schedule = if generic == 1 {
                legalizer.legalize(
                    &topo, src, &wake, &Unrecognized, &hints, 1, jitter, dead.as_ref(), &mut rng,
                )
            } else {
                legalizer.legalize(
                    &topo, src, &wake, &ProtocolModel, &hints, 1, jitter, dead.as_ref(), &mut rng,
                )
            };
            prop_assert!(schedule
                .verify_covering_with_model(&topo, &wake, &ProtocolModel, dead.as_ref())
                .is_ok());
            let mut kept = Vec::new();
            legalizer.take_receive_slots(&mut kept);
            let replayed = schedule.receive_slots(&topo, &ProtocolModel, dead.as_ref());
            prop_assert_eq!(&kept, &replayed);

            let mut builder = ConflictGraphBuilder::new();
            let chain = PartialSchedule::freeze(
                &schedule, &kept, &topo, &ProtocolModel, &mut builder, dead.as_ref(),
            );
            let fresh = match dead.as_ref() {
                None => PartialSchedule::from_schedule(&schedule, &topo, &ProtocolModel, &mut builder),
                Some(mask) => PartialSchedule::freeze(
                    &schedule, &replayed, &topo, &ProtocolModel, &mut builder, Some(mask),
                ),
            };
            prop_assert!(chain == fresh, "the chain's freeze differs from the replayed one");
        }
    }
}
