//! The shared broadcast-state substrate.
//!
//! Every scheduler in the workspace iterates the same state triple — the
//! informed set `W`, its complement `W̄`, and the eligible candidate list —
//! and re-derives the same conflict structure from it at every slot or
//! search state. [`BroadcastState`] centralizes that state behind reusable
//! scratch buffers:
//!
//! * `W̄` is maintained in place (no `complement()` allocation per state);
//! * the candidate list is a reused `Vec` filled by the round-based or
//!   duty-cycle eligibility rule (Algorithm 1 step 1 / Eq. 3);
//! * the conflict graph comes from an incremental
//!   [`ConflictGraphBuilder`], which patches rows by delta instead of
//!   re-running `O(k²)` pairwise tests per state;
//! * the extended greedy coloring and the maximal-set enumeration share
//!   that one graph instead of building one each.
//!
//! One `BroadcastState` is meant to live for many instances (e.g. one per
//! sweep worker): [`BroadcastState::reset_for`] re-targets it to a new
//! topology while keeping every allocation.

use crate::greedy_classes_on_graph;
use wsn_bitset::NodeSet;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_interference::{ConflictGraph, ConflictGraphBuilder, ConflictStats};
use wsn_phy::{ConflictModel, ProtocolModel};
use wsn_topology::{NodeId, Topology};

/// Reusable per-scheduler working state: informed/uninformed sets, the
/// eligible candidate list, and an incrementally-maintained conflict
/// graph.
///
/// # Examples
///
/// ```
/// use wsn_bitset::NodeSet;
/// use wsn_coloring::BroadcastState;
/// use wsn_topology::fixtures;
///
/// let f = fixtures::fig2a();
/// let mut state = BroadcastState::new();
/// state.reset_for(&f.topo);
/// let informed = NodeSet::from_indices(5, [0, 1, 2]);
/// state.load(&f.topo, &informed);
/// assert_eq!(state.candidates().len(), 2);
/// let classes = state.greedy_classes(&f.topo);
/// assert_eq!(classes.len(), 2, "Table II: C1 = {{2}}, C2 = {{3}}");
/// ```
#[derive(Clone, Debug, Default)]
pub struct BroadcastState {
    informed: NodeSet,
    uninformed: NodeSet,
    candidates: Vec<NodeId>,
    builder: ConflictGraphBuilder,
    universe: usize,
    /// [`Topology::token`] the scratch state belongs to (0 = none).
    topo_token: u64,
}

impl BroadcastState {
    /// Creates an empty substrate; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-targets the substrate to `topo`, keeping allocations.
    ///
    /// Loading a state from a different topology (detected via
    /// [`Topology::token`]) re-targets automatically, so handing one
    /// substrate from instance to instance is always safe; the `solve_*` /
    /// `run_*` entry points still call this eagerly to drop stale caches
    /// up front.
    pub fn reset_for(&mut self, topo: &Topology) {
        let n = topo.len();
        self.universe = n;
        self.topo_token = topo.token();
        self.informed.reset(n);
        self.uninformed.reset(n);
        self.candidates.clear();
        self.builder.reset(n);
    }

    /// Loads an informed set and derives `W̄` plus the round-based
    /// candidate rule (informed nodes with an uninformed neighbor).
    pub fn load(&mut self, topo: &Topology, informed: &NodeSet) {
        self.load_sets(topo, informed);
        let (uninformed, candidates) = (&self.uninformed, &mut self.candidates);
        candidates.extend(
            informed
                .iter()
                .map(|u| NodeId(u as u32))
                .filter(|&u| topo.neighbor_set(u).intersects(uninformed)),
        );
    }

    /// Loads an informed set and derives `W̄` plus the duty-cycle
    /// candidate rule (Eq. 3: additionally awake to send in `slot`).
    pub fn load_awake<S: WakeSchedule>(
        &mut self,
        topo: &Topology,
        informed: &NodeSet,
        wake: &S,
        slot: Slot,
    ) {
        self.load_sets(topo, informed);
        let (uninformed, candidates) = (&self.uninformed, &mut self.candidates);
        candidates.extend(informed.iter().map(|u| NodeId(u as u32)).filter(|&u| {
            wake.can_send(u.idx(), slot) && topo.neighbor_set(u).intersects(uninformed)
        }));
    }

    /// Loads an informed set with an explicit candidate list (layered
    /// baselines, tests). Candidate order is preserved.
    pub fn load_candidates(&mut self, topo: &Topology, informed: &NodeSet, candidates: &[NodeId]) {
        self.load_sets(topo, informed);
        self.candidates.extend_from_slice(candidates);
    }

    fn load_sets(&mut self, topo: &Topology, informed: &NodeSet) {
        if topo.len() != self.universe || topo.token() != self.topo_token {
            self.reset_for(topo);
        }
        debug_assert_eq!(informed.universe(), self.universe);
        self.informed.copy_from(informed);
        self.uninformed.copy_from(informed);
        self.uninformed.invert();
        self.candidates.clear();
    }

    /// The loaded informed set `W`.
    #[inline]
    pub fn informed(&self) -> &NodeSet {
        &self.informed
    }

    /// The complement `W̄`, maintained without per-state allocation.
    #[inline]
    pub fn uninformed(&self) -> &NodeSet {
        &self.uninformed
    }

    /// The candidate senders of the loaded state.
    #[inline]
    pub fn candidates(&self) -> &[NodeId] {
        &self.candidates
    }

    /// The conflict graph of the loaded state under `model`, produced
    /// incrementally from the previously loaded one. The shared builder
    /// keys its caches on the model fingerprint, so alternating models on
    /// one substrate is safe (each switch costs a rebuild).
    pub fn conflict_graph_with<M: ConflictModel>(
        &mut self,
        topo: &Topology,
        model: &M,
    ) -> &ConflictGraph {
        self.builder
            .update_with(model, topo, &self.candidates, &self.uninformed)
    }

    /// The extended greedy color classes (Algorithm 1) of the loaded
    /// state, computed over the shared incremental conflict graph
    /// (protocol model).
    pub fn greedy_classes(&mut self, topo: &Topology) -> Vec<Vec<NodeId>> {
        self.classes_and_graph(topo).0
    }

    /// As [`BroadcastState::greedy_classes`], under an arbitrary
    /// [`ConflictModel`].
    pub fn greedy_classes_with<M: ConflictModel>(
        &mut self,
        topo: &Topology,
        model: &M,
    ) -> Vec<Vec<NodeId>> {
        self.classes_and_graph_with(topo, model).0
    }

    /// Greedy classes plus the conflict graph they were colored on — one
    /// graph update serving both the coloring and any enumeration the
    /// caller runs next (the OPT search's per-state pattern). Protocol
    /// model.
    pub fn classes_and_graph(&mut self, topo: &Topology) -> (Vec<Vec<NodeId>>, &ConflictGraph) {
        self.classes_and_graph_with(topo, &ProtocolModel)
    }

    /// As [`BroadcastState::classes_and_graph`], under an arbitrary
    /// [`ConflictModel`].
    pub fn classes_and_graph_with<M: ConflictModel>(
        &mut self,
        topo: &Topology,
        model: &M,
    ) -> (Vec<Vec<NodeId>>, &ConflictGraph) {
        let cg = self
            .builder
            .update_with(model, topo, &self.candidates, &self.uninformed);
        let classes = greedy_classes_on_graph(topo, &self.uninformed, cg);
        (classes, cg)
    }

    /// Packs one slot's multi-channel advance: `seed` transmits on channel
    /// 0 and the remaining candidates fill channels `1..model.channels()`
    /// greedily ([`crate::pack_channels`]), over the shared incremental
    /// conflict graph of the loaded state. With a single-channel model the
    /// seed is returned as-is (sorted) with no channel list.
    pub fn pack_channels_with<M: ConflictModel>(
        &mut self,
        topo: &Topology,
        model: &M,
        seed: &[NodeId],
    ) -> (Vec<NodeId>, Vec<u8>) {
        let cg = self
            .builder
            .update_with(model, topo, &self.candidates, &self.uninformed);
        crate::pack_channels(topo, cg, &self.uninformed, seed, model.channels())
    }

    /// Work accounting of the incremental conflict builder since the last
    /// [`BroadcastState::reset_for`].
    #[inline]
    pub fn conflict_stats(&self) -> &ConflictStats {
        self.builder.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_coloring;
    use wsn_dutycycle::ExplicitSchedule;
    use wsn_interference::ConflictGraph;
    use wsn_topology::fixtures;

    #[test]
    fn substrate_matches_free_function_coloring() {
        let f = fixtures::fig1();
        let mut state = BroadcastState::new();
        state.reset_for(&f.topo);
        // Walk a growing informed set; the substrate's shared-graph classes
        // must match the one-shot free function at every step.
        let steps: [&[usize]; 3] = [
            &[11, 0, 1, 2],
            &[11, 0, 1, 2, 3, 4, 10],
            &[11, 0, 1, 2, 3, 5, 6, 7],
        ];
        for ids in steps {
            let w = NodeSet::from_indices(12, ids.iter().copied());
            state.load(&f.topo, &w);
            assert_eq!(state.greedy_classes(&f.topo), greedy_coloring(&f.topo, &w));
        }
        // A shrink that keeps the candidate list (informing leaf 8 removes
        // no candidate) must ride the in-place delta path.
        let w = NodeSet::from_indices(12, [11usize, 0, 1, 2, 3, 5, 6, 7, 8]);
        state.load(&f.topo, &w);
        assert_eq!(state.greedy_classes(&f.topo), greedy_coloring(&f.topo, &w));
        assert!(
            state.conflict_stats().delta_updates > 0,
            "the shrink step exercised the delta path"
        );
    }

    #[test]
    fn substrate_graph_matches_scratch_graph() {
        let f = fixtures::fig1();
        let mut state = BroadcastState::new();
        state.reset_for(&f.topo);
        let w = NodeSet::from_indices(12, [11usize, 0, 1, 2]);
        state.load(&f.topo, &w);
        let scratch = ConflictGraph::build(&f.topo, state.candidates(), state.uninformed());
        let cg = state.conflict_graph_with(&f.topo, &ProtocolModel);
        assert_eq!(cg.candidates(), scratch.candidates());
        for i in 0..cg.len() {
            assert_eq!(cg.row(i), scratch.row(i));
        }
    }

    #[test]
    fn awake_rule_filters_candidates() {
        let f = fixtures::fig2a();
        let mut state = BroadcastState::new();
        state.reset_for(&f.topo);
        let w = NodeSet::from_indices(5, [0, 1, 2]);
        let wake = ExplicitSchedule::new(vec![vec![2], vec![4, 13], vec![4], vec![9], vec![9]], 20);
        state.load_awake(&f.topo, &w, &wake, 3);
        assert!(state.candidates().is_empty(), "nobody sends at slot 3");
        state.load_awake(&f.topo, &w, &wake, 4);
        assert_eq!(state.candidates().len(), 2);
        assert_eq!(state.informed(), &w);
        assert_eq!(state.uninformed(), &w.complement());
    }

    #[test]
    fn reuse_across_topologies_resets_lazily() {
        let a = fixtures::fig2a();
        let b = fixtures::fig1();
        let mut state = BroadcastState::new();
        state.load(&a.topo, &NodeSet::from_indices(5, [0]));
        assert_eq!(state.candidates().len(), 1);
        // Different universe → implicit reset on load.
        state.load(&b.topo, &NodeSet::from_indices(12, [11]));
        assert_eq!(state.candidates(), [b.source]);
    }
}
