//! The legalizer: turns per-node slot *hints* into a valid, complete
//! broadcast schedule by slot-by-slot replay.
//!
//! Every schedule the anytime tier emits comes out of this function, so
//! correctness lives in exactly one place: at each slot the hinted senders
//! are admitted first (each checked against the already-accepted set under
//! the real conflict model), then the frontier greedily fills the remaining
//! capacity, and receptions are resolved by [`ConflictModel::resolve_receptions`]
//! — the same oracle [`Schedule::verify_with_model`] replays. The local
//! search upstream may therefore speculate on *frozen* conflict structure;
//! whatever it proposes is re-simulated here before it can become a result.
//!
//! Scale notes (10k–100k nodes): all per-slot state is degree-local —
//! frontier counters instead of bitset subtractions, a slot-stamped claim
//! array for the protocol-model admission test — so one legalization costs
//! `O(E)` plus the per-slot frontier sorts.

use mlbs_core::{Schedule, ScheduleEntry};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
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
    /// Scratch sender set handed to `resolve_receptions`.
    senders: NodeSet,
    /// Per-slot candidate ordering buffer: `(priority, node)`.
    order: Vec<(u32, NodeId)>,
    accepted: Vec<NodeId>,
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
            senders: NodeSet::new(n),
            order: Vec::new(),
            accepted: Vec::new(),
        }
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
        let n = topo.len();
        self.reset(topo, source, dead);
        let protocol = model.fingerprint() == ProtocolModel.fingerprint();
        let witness_range = model.witness_range(topo);

        let t_s = wake.next_send(source.idx(), start_from);
        let mut receive_slot = vec![t_s; n];
        let mut entries: Vec<ScheduleEntry> = Vec::new();
        let mut t = t_s;

        while !self.uninformed.is_empty() {
            self.accepted.clear();
            self.stamp += 1;

            // 1. Hinted senders first, in hint order.
            if let Some(list) = hints.get(&t) {
                for &u in list {
                    self.try_accept(topo, model, wake, u, t, protocol, witness_range);
                }
            }

            // 2. Greedy frontier fill by descending uninformed-degree.
            self.frontier
                .retain(|&u| !self.sent[u.idx()] && self.useful[u.idx()] > 0);
            assert!(
                !self.frontier.is_empty(),
                "broadcast cannot complete: disconnected topology"
            );
            self.order.clear();
            for i in 0..self.frontier.len() {
                let u = self.frontier[i];
                if wake.can_send(u.idx(), t) {
                    let noise = if jitter > 0 {
                        rng.random_range(0..=jitter)
                    } else {
                        0
                    };
                    self.order.push((self.useful[u.idx()] + noise, u));
                }
            }
            self.order
                .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut order = std::mem::take(&mut self.order);
            for &(_, u) in &order {
                self.try_accept(topo, model, wake, u, t, protocol, witness_range);
            }
            order.clear();
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

            // 3. Resolve receptions under the real model. The admission
            // test guarantees pairwise conflict freedom; for models whose
            // group resolution is strictly stronger (additive-interference
            // corner cases), drop late acceptances until the slot is clean
            // — a lone sender always delivers, so this terminates.
            self.senders.clear();
            for &u in &self.accepted {
                self.senders.insert(u.idx());
            }
            let outcome = loop {
                let outcome = model.resolve_receptions(topo, &self.senders, &self.uninformed);
                if outcome.collided.is_empty() {
                    break outcome;
                }
                debug_assert!(!protocol, "protocol admissions are collision-free");
                let dropped = self.accepted.pop().expect("accepted non-empty");
                self.senders.remove(dropped.idx());
                assert!(
                    !self.accepted.is_empty(),
                    "a lone sender cannot collide under a sane model"
                );
            };

            for &u in &self.accepted {
                self.sent[u.idx()] = true;
            }
            for w in outcome.received.iter() {
                self.informed.insert(w);
                self.uninformed.remove(w);
                receive_slot[w] = t;
                for &v in topo.neighbors(NodeId(w as u32)) {
                    // Dead neighbors had their counter forced to zero.
                    if self.useful[v.idx()] > 0 {
                        self.useful[v.idx()] -= 1;
                    }
                }
            }
            // Push freshly informed nodes that still have someone to serve.
            for w in outcome.received.iter() {
                if self.useful[w] > 0 {
                    self.frontier.push(NodeId(w as u32));
                }
            }
            let mut senders = std::mem::take(&mut self.accepted);
            senders.sort_unstable();
            entries.push(ScheduleEntry::new(t, senders));
            self.accepted = Vec::new();
            t += 1;
        }

        Schedule {
            source,
            start: t_s,
            entries,
            receive_slot,
            repeats: Vec::new(),
        }
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
        if protocol {
            // Protocol conflicts are exactly "shared uninformed neighbor":
            // the stamped claim array decides in O(deg) and doubles as the
            // update, so admission over a whole slot is linear in the
            // accepted senders' degrees.
            for &w in topo.neighbors(u) {
                if self.uninformed.contains(w.idx()) && self.claimed[w.idx()] == self.stamp {
                    return;
                }
            }
            for &w in topo.neighbors(u) {
                if self.uninformed.contains(w.idx()) {
                    self.claimed[w.idx()] = self.stamp;
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
