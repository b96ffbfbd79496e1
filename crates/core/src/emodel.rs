//! The lightweight estimation 4-tuple `E` (Algorithm 2, Eq. 9/10/11).
//!
//! `E_i(u)` estimates the remaining broadcast delay from `u` toward the
//! network edge within quadrant `Q_i(u)` — the *unfinished* work, in
//! contrast to hop-distance-from-source schemes that only measure finished
//! work. Construction is proactive (Theorem 3: `O(1)` information
//! exchanges per node) and entirely local in message-passing terms; here it
//! is computed centrally as a multi-source shortest-path per quadrant:
//!
//! * pass 1 seeds the *network-edge* nodes whose quadrant-`i` neighborhood
//!   is empty with `E_i = 0` and relaxes
//!   `E_i(u) = t(u,v) + E_i(v)` over `v ∈ N(u) ∩ Q_i(u)` (Eq. 11; the
//!   synchronous Eq. 9 is the special case `t(u,v) = 1`);
//! * pass 2 promotes the remaining local-minimum nodes (`∞` with an empty
//!   quadrant — hole boundaries) to 0 and re-relaxes **only** the `∞`
//!   values, exactly as §IV-E specifies.
//!
//! Because the quadrant relation is a strict partial order on positions,
//! every chain of quadrant-`i` edges terminates at a node with an empty
//! quadrant, so after pass 2 no `∞` survives (asserted).

use crate::pipeline::ColorSelector;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wsn_bitset::NodeSet;
use wsn_coloring::BroadcastState;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_geom::Quadrant;
use wsn_topology::{boundary, NodeId, Topology};

/// The per-node, per-quadrant delay estimates.
#[derive(Clone, Debug)]
pub struct EModel {
    /// `values[q][u]` = `E_{q+1}(u)`.
    values: [Vec<f64>; 4],
}

/// f64 ordered for the Dijkstra heap (weights are ≥ 1 and finite).
#[derive(PartialEq)]
struct HeapKey(f64);

impl Eq for HeapKey {}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Construction-cost accounting for Theorem 3 ("the E-model has a cost
/// complexity of O(1) in terms of the number of information exchanges and
/// updates" — each node updates each `E_i` once from `∞`, ≤ `4N` total).
#[derive(Clone, Debug, Default)]
pub struct EModelStats {
    /// Per quadrant: nodes whose value left `∞` (the updates Theorem 3
    /// counts). At most `N` each.
    pub first_assignments: [usize; 4],
    /// Per quadrant: later improvements to an already finite value. Zero
    /// under uniform (synchronous) weights; small under CWT weights, where
    /// the distributed protocol would send these as follow-up beacons.
    pub refinements: [usize; 4],
    /// Per quadrant: local-minimum (hole-boundary) nodes seeded in pass 2.
    pub pass2_seeds: [usize; 4],
}

impl EModelStats {
    /// Total accepted updates across all quadrants.
    pub fn total_updates(&self) -> usize {
        self.first_assignments.iter().sum::<usize>() + self.refinements.iter().sum::<usize>()
    }
}

impl EModel {
    /// Builds the 4-tuple for `topo` under the given wake schedule.
    ///
    /// With [`wsn_dutycycle::AlwaysAwake`] every edge weight is 1 and this
    /// is exactly Eq. (9); with a duty-cycle schedule the weight of `u → v`
    /// is the expected cycle waiting time `t(u, v)` (Eq. 11).
    pub fn build<S: WakeSchedule>(topo: &Topology, wake: &S) -> Self {
        Self::build_with_stats(topo, wake).0
    }

    /// As [`EModel::build`], also returning the Theorem 3 cost accounting.
    pub fn build_with_stats<S: WakeSchedule>(topo: &Topology, wake: &S) -> (Self, EModelStats) {
        let n = topo.len();
        let edge_nodes: NodeSet =
            NodeSet::from_indices(n, boundary::edge_nodes(topo).iter().map(|u| u.idx()));

        let mut stats = EModelStats::default();
        let mut values: [Vec<f64>; 4] = std::array::from_fn(|_| vec![f64::INFINITY; n]);
        for q in Quadrant::ALL {
            let vals = &mut values[q.index()];
            let (mut firsts, mut refines) = (0usize, 0usize);

            // Pass 1: network-edge seeds.
            let mut heap: BinaryHeap<Reverse<(HeapKey, usize)>> = BinaryHeap::new();
            for u in topo.nodes() {
                if edge_nodes.contains(u.idx()) && !topo.has_neighbor_in_quadrant(u, q) {
                    vals[u.idx()] = 0.0;
                    heap.push(Reverse((HeapKey(0.0), u.idx())));
                }
            }
            Self::relax(topo, wake, q, vals, heap, None, &mut firsts, &mut refines);

            // Pass 2: promote surviving local minima (hole boundaries) and
            // re-relax, updating only nodes that are still ∞. Pass-1 values
            // are frozen by seeding them into the heap as settled sources.
            let frozen: NodeSet = NodeSet::from_indices(n, (0..n).filter(|&u| vals[u].is_finite()));
            let mut heap: BinaryHeap<Reverse<(HeapKey, usize)>> = BinaryHeap::new();
            let mut pass2 = 0usize;
            for u in topo.nodes() {
                if vals[u.idx()].is_infinite() && !topo.has_neighbor_in_quadrant(u, q) {
                    vals[u.idx()] = 0.0;
                    pass2 += 1;
                }
            }
            if pass2 > 0 || !frozen.is_full() {
                for (u, &val) in vals.iter().enumerate() {
                    if val.is_finite() {
                        heap.push(Reverse((HeapKey(val), u)));
                    }
                }
                Self::relax(
                    topo,
                    wake,
                    q,
                    vals,
                    heap,
                    Some(&frozen),
                    &mut firsts,
                    &mut refines,
                );
            }

            stats.first_assignments[q.index()] = firsts;
            stats.refinements[q.index()] = refines;
            stats.pass2_seeds[q.index()] = pass2;

            debug_assert!(
                vals.iter().all(|v| v.is_finite()),
                "quadrant {q:?}: the quadrant order is strict, every chain must terminate"
            );
        }
        (EModel { values }, stats)
    }

    /// Multi-source Dijkstra on the reversed quadrant graph: popping a
    /// settled `v` relaxes every `u ∈ N(v)` that sees `v` in quadrant `q`
    /// (equivalently `u ∈ N(v) ∩ Q_opposite(v)`). When `frozen` is given,
    /// nodes in it are never updated (pass-2 semantics: "update its ∞ value
    /// and only ∞ value").
    #[allow(clippy::too_many_arguments)]
    fn relax<S: WakeSchedule>(
        topo: &Topology,
        wake: &S,
        q: Quadrant,
        vals: &mut [f64],
        mut heap: BinaryHeap<Reverse<(HeapKey, usize)>>,
        frozen: Option<&NodeSet>,
        first_assignments: &mut usize,
        refinements: &mut usize,
    ) {
        let pv_quadrant =
            |u: NodeId, v: NodeId| Quadrant::of(&topo.position(u), &topo.position(v)) == Some(q);
        while let Some(Reverse((HeapKey(dv), v))) = heap.pop() {
            if dv > vals[v] {
                continue; // stale entry
            }
            let v_id = NodeId(v as u32);
            for &u in topo.neighbors(v_id) {
                if let Some(f) = frozen {
                    if f.contains(u.idx()) {
                        continue;
                    }
                }
                if !pv_quadrant(u, v_id) {
                    continue;
                }
                let w = wake.expected_cwt(u.idx(), v);
                let cand = w + dv;
                if cand < vals[u.idx()] {
                    if vals[u.idx()].is_infinite() {
                        *first_assignments += 1;
                    } else {
                        *refinements += 1;
                    }
                    vals[u.idx()] = cand;
                    heap.push(Reverse((HeapKey(cand), u.idx())));
                }
            }
        }
    }

    /// `E_i(u)` for quadrant `q`.
    #[inline]
    pub fn value(&self, u: NodeId, q: Quadrant) -> f64 {
        self.values[q.index()][u.idx()]
    }

    /// The full 4-tuple of `u` in quadrant order.
    pub fn tuple(&self, u: NodeId) -> [f64; 4] {
        std::array::from_fn(|q| self.values[q][u.idx()])
    }

    /// The Eq. (10) score of a sender `u` against the uninformed set: the
    /// largest `E_k(u)` over quadrants `k` that still contain uninformed
    /// neighbors of `u` (`N(u) ∩ Q_k(u) ∩ W̄ ≠ ∅`).
    pub fn score(&self, topo: &Topology, u: NodeId, uninformed: &NodeSet) -> f64 {
        let pu = topo.position(u);
        let mut best = f64::NEG_INFINITY;
        for &v in topo.neighbors(u) {
            if !uninformed.contains(v.idx()) {
                continue;
            }
            if let Some(q) = Quadrant::of(&pu, &topo.position(v)) {
                best = best.max(self.value(u, q));
            }
        }
        best
    }

    /// Eq. (10) color selection: the class containing the sender with the
    /// largest quadrant-restricted `E` value; ties resolve to the earliest
    /// (greediest) class.
    pub fn select_class(
        &self,
        topo: &Topology,
        informed: &NodeSet,
        classes: &[Vec<NodeId>],
    ) -> usize {
        self.select_class_against(topo, &informed.complement(), classes)
    }

    /// As [`EModel::select_class`], scoring directly against a prepared
    /// `W̄` — the allocation-free path the pipeline substrate uses.
    pub fn select_class_against(
        &self,
        topo: &Topology,
        uninformed: &NodeSet,
        classes: &[Vec<NodeId>],
    ) -> usize {
        assert!(!classes.is_empty(), "no classes to select from");
        let mut best_idx = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (i, class) in classes.iter().enumerate() {
            let s = class
                .iter()
                .map(|&u| self.score(topo, u, uninformed))
                .fold(f64::NEG_INFINITY, f64::max);
            if s > best_score {
                best_score = s;
                best_idx = i;
            }
        }
        best_idx
    }
}

/// [`ColorSelector`] adapter for the E-model (the paper's practical
/// scheduler when plugged into [`crate::run_pipeline`]).
pub struct EModelSelector<'a> {
    emodel: &'a EModel,
}

impl<'a> EModelSelector<'a> {
    /// Wraps a prebuilt E-model.
    pub fn new(emodel: &'a EModel) -> Self {
        EModelSelector { emodel }
    }
}

impl ColorSelector for EModelSelector<'_> {
    fn select(
        &mut self,
        topo: &Topology,
        state: &BroadcastState,
        classes: &[Vec<NodeId>],
        _slot: Slot,
    ) -> usize {
        self.emodel
            .select_class_against(topo, state.uninformed(), classes)
    }
}

/// Ablation variant of the estimate: the plain (direction-less) delay to
/// the nearest network edge, i.e. the 4-tuple collapsed to a scalar.
///
/// The ablation quantifies how much of the E-model's value comes from its
/// *directionality* (scoring only quadrants that still hold uninformed
/// neighbors) versus merely knowing the distance to the edge. Construction is a single multi-source Dijkstra from all edge
/// nodes over the undirected adjacency.
#[derive(Clone, Debug)]
pub struct ScalarEdgeDistance {
    dist: Vec<f64>,
}

impl ScalarEdgeDistance {
    /// Builds the scalar estimate (CWT-weighted under duty cycling).
    pub fn build<S: WakeSchedule>(topo: &Topology, wake: &S) -> Self {
        let n = topo.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut heap: BinaryHeap<Reverse<(HeapKey, usize)>> = BinaryHeap::new();
        for u in boundary::edge_nodes(topo) {
            dist[u.idx()] = 0.0;
            heap.push(Reverse((HeapKey(0.0), u.idx())));
        }
        while let Some(Reverse((HeapKey(dv), v))) = heap.pop() {
            if dv > dist[v] {
                continue;
            }
            for &u in topo.neighbors(NodeId(v as u32)) {
                let cand = wake.expected_cwt(u.idx(), v) + dv;
                if cand < dist[u.idx()] {
                    dist[u.idx()] = cand;
                    heap.push(Reverse((HeapKey(cand), u.idx())));
                }
            }
        }
        ScalarEdgeDistance { dist }
    }

    /// The scalar estimate of `u`.
    #[inline]
    pub fn value(&self, u: NodeId) -> f64 {
        self.dist[u.idx()]
    }
}

/// [`ColorSelector`] for the scalar ablation: launch the class whose
/// farthest-from-edge member is largest, ignoring direction entirely.
pub struct ScalarESelector<'a> {
    scalar: &'a ScalarEdgeDistance,
}

impl<'a> ScalarESelector<'a> {
    /// Wraps a prebuilt scalar estimate.
    pub fn new(scalar: &'a ScalarEdgeDistance) -> Self {
        ScalarESelector { scalar }
    }
}

impl ColorSelector for ScalarESelector<'_> {
    fn select(
        &mut self,
        _topo: &Topology,
        _state: &BroadcastState,
        classes: &[Vec<NodeId>],
        _slot: Slot,
    ) -> usize {
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (i, class) in classes.iter().enumerate() {
            let s = class
                .iter()
                .map(|&u| self.scalar.value(u))
                .fold(f64::NEG_INFINITY, f64::max);
            if s > best_score {
                best_score = s;
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_dutycycle::{AlwaysAwake, WindowedRandom};
    use wsn_topology::{deploy, fixtures};

    #[test]
    fn paper_e2_example_values() {
        // §IV-E: "E2(7) = E2(8) = E2(9) = 0, and E2(0) = E2(4) = E2(5) =
        // E2(6) = E2(10) = 1. We have E2(1) = 2 as the maximum."
        let f = fixtures::fig1();
        let em = EModel::build(&f.topo, &AlwaysAwake);
        let e2 = |label: &str| em.value(f.id(label), Quadrant::Q2);
        for l in ["7", "8", "9"] {
            assert_eq!(e2(l), 0.0, "E2({l})");
        }
        for l in ["0", "4", "5", "6", "10"] {
            assert_eq!(e2(l), 1.0, "E2({l})");
        }
        assert_eq!(e2("1"), 2.0, "E2(1)");
    }

    #[test]
    fn paper_selection_picks_node_1_color() {
        // At W = {s, 0, 1, 2} the greedy classes are [{0}, {1}, {2}]; the
        // E-model must select node 1's color (Figure 1 (c): magenta first).
        let f = fixtures::fig1();
        let em = EModel::build(&f.topo, &AlwaysAwake);
        let w = NodeSet::from_indices(12, [f.source.idx(), 0, 1, 2]);
        let classes = wsn_coloring::greedy_coloring(&f.topo, &w);
        let chosen = em.select_class(&f.topo, &w, &classes);
        assert_eq!(classes[chosen], vec![f.id("1")]);
    }

    #[test]
    fn grid_values_count_hops_to_edge() {
        // On a 5×5 unit grid (4-adjacency), E1 of column x is the number of
        // eastward hops to the east edge… for nodes with an eastward
        // neighbor; edge columns are seeds.
        let t = deploy::grid(5, 5, 1.0, 1.1);
        let em = EModel::build(&t, &AlwaysAwake);
        // Center node (2,2) = id 12: two hops east, west, north, south.
        let center = NodeId(12);
        assert_eq!(em.value(center, Quadrant::Q1), 2.0);
        assert_eq!(em.value(center, Quadrant::Q2), 2.0);
        assert_eq!(em.value(center, Quadrant::Q3), 2.0);
        assert_eq!(em.value(center, Quadrant::Q4), 2.0);
        // East-edge middle (4,2) = id 14: no Q1 neighbor → 0.
        assert_eq!(em.value(NodeId(14), Quadrant::Q1), 0.0);
        assert_eq!(em.value(NodeId(14), Quadrant::Q3), 4.0);
    }

    #[test]
    fn all_values_finite_on_random_deployments() {
        for seed in 0..3 {
            let (topo, _) = deploy::SyntheticDeployment::paper(150).sample(seed);
            let em = EModel::build(&topo, &AlwaysAwake);
            for u in topo.nodes() {
                for q in Quadrant::ALL {
                    assert!(em.value(u, q).is_finite(), "E_{q:?}({u}) infinite");
                }
            }
        }
    }

    #[test]
    fn async_values_scale_with_cycle_rate() {
        // With cycle rate r, each hop costs an expected CWT in [1, 2r), so
        // E values grow roughly r/2× the synchronous ones but stay finite
        // and ordered.
        let (topo, _) = deploy::SyntheticDeployment::paper(100).sample(9);
        let sync = EModel::build(&topo, &AlwaysAwake);
        let wake = WindowedRandom::new(topo.len(), 10, 7);
        let duty = EModel::build(&topo, &wake);
        let mut grew = 0;
        let mut total = 0;
        for u in topo.nodes() {
            for q in Quadrant::ALL {
                let (s, d) = (sync.value(u, q), duty.value(u, q));
                assert!(d.is_finite());
                assert!(d >= s, "duty-cycle estimate below hop count at {u} {q:?}");
                if s > 0.0 {
                    total += 1;
                    if d > s {
                        grew += 1;
                    }
                }
            }
        }
        assert!(
            grew * 2 > total,
            "CWT weights should increase most estimates"
        );
    }

    #[test]
    fn score_ignores_informed_quadrants() {
        let f = fixtures::fig1();
        let em = EModel::build(&f.topo, &AlwaysAwake);
        // With only node 3 uninformed, node 1's score collapses to the
        // quadrant containing 3 (Q2 → E2(1) = 2).
        let mut informed = NodeSet::full(12);
        informed.remove(f.id("3").idx());
        let uninformed = informed.complement();
        assert_eq!(em.score(&f.topo, f.id("1"), &uninformed), 2.0);
        // A node with no uninformed neighbors scores −∞.
        assert_eq!(em.score(&f.topo, f.id("7"), &uninformed), f64::NEG_INFINITY);
    }

    #[test]
    fn theorem3_update_counts() {
        // Theorem 3: each node's E_i leaves ∞ at most once → at most 4N
        // first assignments in total; under uniform (synchronous) weights
        // the relaxation settles in distance order, so no refinements.
        for seed in 0..3 {
            let (topo, _) = deploy::SyntheticDeployment::paper(150).sample(seed);
            let (_, stats) = EModel::build_with_stats(&topo, &AlwaysAwake);
            for q in 0..4 {
                assert!(stats.first_assignments[q] <= topo.len());
                assert_eq!(stats.refinements[q], 0, "quadrant {q} refinements");
            }
            assert!(stats.total_updates() <= 4 * topo.len());
        }
    }

    #[test]
    fn theorem3_refinements_stay_small_under_cwt_weights() {
        let (topo, _) = deploy::SyntheticDeployment::paper(150).sample(1);
        let wake = WindowedRandom::new(topo.len(), 10, 3);
        let (_, stats) = EModel::build_with_stats(&topo, &wake);
        let firsts: usize = stats.first_assignments.iter().sum();
        let refines: usize = stats.refinements.iter().sum();
        assert!(firsts <= 4 * topo.len());
        // Non-uniform weights may revise a few values, but the protocol
        // stays O(1) per node on average.
        assert!(
            refines <= firsts,
            "refinements {refines} exceed first assignments {firsts}"
        );
    }

    #[test]
    fn pass2_seeds_appear_with_holes() {
        // Whether a particular sampled rim carries local minima depends on
        // the RNG stream, so aggregate over a seed set instead of pinning
        // one seed: across several hole deployments at this size, at least
        // one rim must produce pass-2 seeds, and *every* deployment must
        // end with finite estimates regardless.
        let mut seeds_seen = 0usize;
        for seed in 0..8u64 {
            let mut d = deploy::SyntheticDeployment::paper(250);
            d.hole = Some((wsn_geom::Point::new(25.0, 25.0), 9.0));
            let (topo, _) = d.sample(seed);
            let (em, stats) = EModel::build_with_stats(&topo, &AlwaysAwake);
            seeds_seen += stats.pass2_seeds.iter().sum::<usize>();
            for u in topo.nodes() {
                for q in Quadrant::ALL {
                    assert!(em.value(u, q).is_finite(), "seed {seed}: E infinite");
                }
            }
        }
        assert!(
            seeds_seen > 0,
            "no hole deployment produced hole-boundary pass-2 seeds"
        );
    }

    #[test]
    fn scalar_ablation_measures_edge_distance() {
        let t = deploy::grid(5, 5, 1.0, 1.1);
        let scalar = ScalarEdgeDistance::build(&t, &AlwaysAwake);
        // Perimeter nodes are the seeds; the grid center is 2 hops in.
        assert_eq!(scalar.value(NodeId(0)), 0.0);
        assert_eq!(scalar.value(NodeId(2)), 0.0);
        assert_eq!(scalar.value(NodeId(12)), 2.0);
        assert_eq!(scalar.value(NodeId(7)), 1.0); // (2,1): one hop from the rim
    }

    #[test]
    fn scalar_selector_is_weaker_than_directional_on_fig1() {
        // On Figure 1, both node 1 and node 2 sit deep inside the network,
        // but only the directional Eq. (10) score tells them apart: the
        // scalar selector is a valid policy yet loses the tie-break
        // information. We only assert both produce verified schedules and
        // the directional one is never worse here.
        let f = fixtures::fig1();
        let em = EModel::build(&f.topo, &AlwaysAwake);
        let scalar = ScalarEdgeDistance::build(&f.topo, &AlwaysAwake);
        let directional = crate::run_pipeline(
            &f.topo,
            f.source,
            &AlwaysAwake,
            &mut EModelSelector::new(&em),
            &crate::PipelineConfig::default(),
        );
        let flat = crate::run_pipeline(
            &f.topo,
            f.source,
            &AlwaysAwake,
            &mut ScalarESelector::new(&scalar),
            &crate::PipelineConfig::default(),
        );
        directional.verify(&f.topo, &AlwaysAwake).unwrap();
        flat.verify(&f.topo, &AlwaysAwake).unwrap();
        assert!(directional.latency() <= flat.latency());
    }

    #[test]
    fn emodel_pipeline_matches_optimum_on_fig1() {
        // End-to-end: the E-model-driven pipeline achieves the paper's
        // minimum latency P(A) = 3 on Figure 1 (Table III).
        let f = fixtures::fig1();
        let em = EModel::build(&f.topo, &AlwaysAwake);
        let s = crate::run_pipeline(
            &f.topo,
            f.source,
            &AlwaysAwake,
            &mut EModelSelector::new(&em),
            &crate::PipelineConfig::default(),
        );
        s.verify(&f.topo, &AlwaysAwake).unwrap();
        assert_eq!(s.latency(), 3);
    }
}
