//! The lightweight estimation 4-tuple `E` (Algorithm 2, Eq. 9/10/11).
//!
//! `E_i(u)` estimates the remaining broadcast delay from `u` toward the
//! network edge within quadrant `Q_i(u)` — the *unfinished* work, in
//! contrast to hop-distance-from-source schemes that only measure finished
//! work. Construction is proactive (Theorem 3: `O(1)` information
//! exchanges per node) and entirely local in message-passing terms (see
//! `wsn_distributed::distributed_emodel`); here it is computed centrally,
//! by one ordered sweep per quadrant.
//!
//! * Pass 1 seeds the *network-edge* nodes whose quadrant-`i` neighborhood
//!   is empty with `E_i = 0` and sets `E_i(u) = t(u,v) + E_i(v)` minimized
//!   over `v ∈ N(u) ∩ Q_i(u)` (Eq. 11; the synchronous Eq. 9 is the special
//!   case `t(u,v) = 1`).
//! * Pass 2 promotes the remaining local-minimum nodes (`∞` with an empty
//!   quadrant — hole boundaries) to 0 and recomputes **only** the `∞`
//!   values, exactly as §IV-E specifies.
//!
//! Every quadrant-`i` edge strictly moves one coordinate (the tie rules of
//! [`Quadrant::of`]): `Q1` edges increase `x`, `Q2` increase `y`, `Q3`
//! decrease `x` and `Q4` decrease `y`. So each quadrant graph is a DAG, and
//! walking the nodes sorted by that coordinate, far end first, reaches
//! every `v ∈ Q_i(u)` before `u`. Nodes with equal coordinates are never
//! related in that quadrant, so ties need no care and an unstable sort
//! serves. Each value is the minimum of the same candidate sums in
//! whatever order they are taken, so the sweep equals a shortest-path
//! relaxation bit for bit.
//!
//! The quadrant-`i` walk scans each node's adjacency and skips the
//! neighbors outside `Q_i(u)`, so each edge's `t(u,v)` is read once, in
//! its quadrant's walk.
//!
//! Both passes run fused in the one walk. With `p1` the pass-1 value:
//! `E_i(u) = p1(u)` when that is finite (pass 1 froze it); otherwise 0
//! when the quadrant is empty (a pass-2 seed); otherwise the minimum of
//! `t(u,v) + E_i(v)`. Every chain of quadrant-`i` edges ends at a node with
//! an empty quadrant, so no `∞` survives (asserted).

use crate::pipeline::ColorSelector;
use wsn_bitset::NodeSet;
use wsn_coloring::BroadcastState;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_geom::{Point, Quadrant};
use wsn_topology::{boundary, NodeId, Topology};

/// The per-node, per-quadrant delay estimates.
#[derive(Clone, Debug)]
pub struct EModel {
    /// `values[q][u]` = `E_{q+1}(u)`.
    values: [Vec<f64>; 4],
}

impl EModel {
    /// Builds the 4-tuple for `topo` under the given wake schedule.
    ///
    /// With [`wsn_dutycycle::AlwaysAwake`] every edge weight is 1 and this
    /// is exactly Eq. (9); with a duty-cycle schedule the weight of `u → v`
    /// is the expected cycle waiting time `t(u, v)` (Eq. 11).
    pub fn build<S: WakeSchedule>(topo: &Topology, wake: &S) -> Self {
        let n = topo.len();
        let edge_nodes: NodeSet =
            NodeSet::from_indices(n, boundary::edge_nodes(topo).iter().map(|u| u.idx()));
        let sorted_by = |key: fn(&Point) -> f64| {
            let mut ids: Vec<NodeId> = topo.nodes().collect();
            ids.sort_unstable_by(|&a, &b| {
                key(&topo.position(a)).total_cmp(&key(&topo.position(b)))
            });
            ids
        };
        let (by_x, by_y) = (sorted_by(|p| p.x), sorted_by(|p| p.y));

        let mut pass1 = vec![f64::INFINITY; n];
        let values = Quadrant::ALL.map(|q| {
            // Walk so that every quadrant-q neighbour of u is settled first.
            let (order, ascending) = match q {
                Quadrant::Q1 => (&by_x, false),
                Quadrant::Q2 => (&by_y, false),
                Quadrant::Q3 => (&by_x, true),
                Quadrant::Q4 => (&by_y, true),
            };
            let mut vals = vec![f64::INFINITY; n];
            for k in 0..n {
                let u = order[if ascending { k } else { n - 1 - k }];
                let pu = topo.position(u);
                let (mut p1, mut e, mut empty) = (f64::INFINITY, f64::INFINITY, true);
                for &v in topo.neighbors(u) {
                    if Quadrant::of(&pu, &topo.position(v)) != Some(q) {
                        continue;
                    }
                    empty = false;
                    let w = wake.expected_cwt(u.idx(), v.idx());
                    p1 = p1.min(w + pass1[v.idx()]);
                    e = e.min(w + vals[v.idx()]);
                }
                if empty && edge_nodes.contains(u.idx()) {
                    p1 = 0.0;
                }
                pass1[u.idx()] = p1;
                vals[u.idx()] = if p1.is_finite() {
                    p1
                } else if empty {
                    0.0
                } else {
                    e
                };
            }
            debug_assert!(
                vals.iter().all(|v| v.is_finite()),
                "quadrant {q:?}: the quadrant order is strict, every chain must terminate"
            );
            vals
        });
        EModel { values }
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
    fn pass2_seeds_appear_with_holes() {
        // Whether a particular sampled rim carries local minima depends on
        // the RNG stream, so aggregate over a seed set instead of pinning
        // one seed: across several hole deployments at this size, at least
        // one rim must produce pass-2 seeds (an empty quadrant off the
        // network edge, valued 0), and *every* deployment must end with
        // finite estimates regardless.
        let mut seeds_seen = 0usize;
        for seed in 0..8u64 {
            let mut d = deploy::SyntheticDeployment::paper(250);
            d.hole = Some((wsn_geom::Point::new(25.0, 25.0), 9.0));
            let (topo, _) = d.sample(seed);
            let em = EModel::build(&topo, &AlwaysAwake);
            let edge = boundary::edge_nodes(&topo);
            for u in topo.nodes() {
                for q in Quadrant::ALL {
                    assert!(em.value(u, q).is_finite(), "seed {seed}: E infinite");
                    if !topo.has_neighbor_in_quadrant(u, q) && !edge.contains(&u) {
                        assert_eq!(em.value(u, q), 0.0, "seed {seed}: pass-2 seed {u}");
                        seeds_seen += 1;
                    }
                }
            }
        }
        assert!(
            seeds_seen > 0,
            "no hole deployment produced hole-boundary pass-2 seeds"
        );
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
