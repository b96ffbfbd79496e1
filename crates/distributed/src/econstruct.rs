//! Distributed E-model construction by asynchronous message passing.
//!
//! The centralized `EModel::build` sweeps each quadrant's DAG once in
//! coordinate order; the proactive protocol the paper describes (§IV-E,
//! Theorem 3) is its message-passing equivalent: edge nodes announce
//! `E_i = 0`, every node re-evaluates Eq. (9)/(11) whenever a neighbor
//! announces a new tuple, and announces its own tuple when a value
//! changes. We simulate exactly that — including the paper's two phases,
//! where hole-boundary local minima self-promote to 0 only after the first
//! phase goes quiet, and phase 2 announcements may only fill values that
//! are still `∞`. Each node's last announcement carries its final tuple,
//! so every value settles to the minimum of the same `t(u,v) + E_i(v)`
//! sums the sweep takes, and the two agree bit for bit
//! ([`matches_centralized`]).
//!
//! The interesting output is [`DistributedEStats`]: how many tuple
//! announcements the protocol really sends, which is the quantity
//! Theorem 3 bounds.

use mlbs_core::EModel;
use std::collections::VecDeque;
use wsn_dutycycle::WakeSchedule;
use wsn_geom::Quadrant;
use wsn_topology::{NodeId, Topology};

/// Message accounting from a distributed construction.
#[derive(Clone, Debug, Default)]
pub struct DistributedEStats {
    /// Tuple announcements sent (one per node per value revision).
    pub announcements: usize,
    /// Value revisions accepted across all quadrants.
    pub updates: usize,
    /// Nodes seeded in phase 2 (hole boundaries).
    pub phase2_seeds: usize,
}

impl DistributedEStats {
    /// Announcements per node — Theorem 3 says this is `O(1)`.
    pub fn announcements_per_node(&self, n: usize) -> f64 {
        self.announcements as f64 / n as f64
    }
}

/// Runs the distributed construction and returns the values (as tuples,
/// quadrant-major like [`EModel::tuple`]) plus the message accounting.
///
/// The result equals the centralized [`EModel::build`] fixpoint — asserted
/// by this module's tests rather than here, so production callers don't
/// pay a double construction.
pub fn distributed_emodel<S: WakeSchedule>(
    topo: &Topology,
    wake: &S,
) -> (Vec<[f64; 4]>, DistributedEStats) {
    let n = topo.len();
    let mut values = vec![[f64::INFINITY; 4]; n];
    let mut stats = DistributedEStats::default();

    // Local edge rule: a node facing an angular gap ≥ the boundary
    // threshold knows it from its own beacons (hull membership is implied:
    // hull vertices always have a ≥ 180° gap).
    let edge = wsn_topology::boundary::edge_nodes(topo);

    // Phase 1: edge nodes with an empty quadrant announce 0.
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for &u in &edge {
        let mut seeded = false;
        for q in Quadrant::ALL {
            if !topo.has_neighbor_in_quadrant(u, q) {
                values[u.idx()][q.index()] = 0.0;
                stats.updates += 1;
                seeded = true;
            }
        }
        if seeded {
            stats.announcements += 1;
            queue.push_back(u);
        }
    }
    let phase1_frozen = run_phase(topo, wake, &mut values, &mut stats, queue, None);

    // Phase 2: survivors with an empty quadrant self-promote; only still-∞
    // entries may change from here on.
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for u in topo.nodes() {
        let mut seeded = false;
        for q in Quadrant::ALL {
            if values[u.idx()][q.index()].is_infinite() && !topo.has_neighbor_in_quadrant(u, q) {
                values[u.idx()][q.index()] = 0.0;
                stats.updates += 1;
                stats.phase2_seeds += 1;
                seeded = true;
            }
        }
        if seeded {
            stats.announcements += 1;
            queue.push_back(u);
        } else if values[u.idx()].iter().any(|v| v.is_finite()) {
            // Finite nodes re-announce once so phase-2 neighbors can read
            // their (frozen) values.
            stats.announcements += 1;
            queue.push_back(u);
        }
    }
    run_phase(
        topo,
        wake,
        &mut values,
        &mut stats,
        queue,
        Some(&phase1_frozen),
    );

    debug_assert!(
        values.iter().all(|t| t.iter().all(|v| v.is_finite())),
        "strict quadrant order guarantees convergence"
    );
    (values, stats)
}

/// Processes announcements until quiescence. Each popped node's tuple is
/// read by all neighbors; any neighbor whose Eq. (9)/(11) recomputation
/// improves re-announces. `frozen[u][q]` entries (phase-1 results during
/// phase 2) never change.
fn run_phase<S: WakeSchedule>(
    topo: &Topology,
    wake: &S,
    values: &mut [[f64; 4]],
    stats: &mut DistributedEStats,
    mut queue: VecDeque<NodeId>,
    frozen: Option<&Vec<[bool; 4]>>,
) -> Vec<[bool; 4]> {
    while let Some(v) = queue.pop_front() {
        for &u in topo.neighbors(v) {
            // u re-evaluates each quadrant in which v lies.
            let q = match Quadrant::of(&topo.position(u), &topo.position(v)) {
                Some(q) => q,
                None => continue,
            };
            if let Some(f) = frozen {
                if f[u.idx()][q.index()] {
                    continue;
                }
            }
            let w = wake.expected_cwt(u.idx(), v.idx());
            let cand = w + values[v.idx()][q.index()];
            if cand < values[u.idx()][q.index()] {
                values[u.idx()][q.index()] = cand;
                stats.updates += 1;
                stats.announcements += 1;
                queue.push_back(u);
            }
        }
    }
    values
        .iter()
        .map(|t| std::array::from_fn(|q| t[q].is_finite()))
        .collect()
}

/// Convenience check used by tests and examples: do the distributed values
/// match the centralized fixpoint bit for bit?
pub fn matches_centralized<S: WakeSchedule>(topo: &Topology, wake: &S) -> bool {
    let (dist, _) = distributed_emodel(topo, wake);
    let central = EModel::build(topo, wake);
    topo.nodes().all(|u| {
        let c = central.tuple(u);
        let d = dist[u.idx()];
        (0..4).all(|q| c[q].to_bits() == d[q].to_bits())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_dutycycle::{AlwaysAwake, WindowedRandom};
    use wsn_topology::{deploy, fixtures};

    #[test]
    fn matches_centralized_on_fixtures() {
        assert!(matches_centralized(&fixtures::fig1().topo, &AlwaysAwake));
        assert!(matches_centralized(&fixtures::fig2a().topo, &AlwaysAwake));
    }

    #[test]
    fn matches_centralized_on_random_deployments() {
        for seed in 0..4 {
            let (topo, _) = deploy::SyntheticDeployment::paper(120).sample(seed);
            assert!(matches_centralized(&topo, &AlwaysAwake), "seed {seed}");
            let wake = WindowedRandom::new(topo.len(), 10, seed);
            assert!(matches_centralized(&topo, &wake), "duty seed {seed}");
        }
    }

    #[test]
    fn matches_centralized_with_holes() {
        let mut d = deploy::SyntheticDeployment::paper(200);
        d.hole = Some((wsn_geom::Point::new(25.0, 25.0), 8.0));
        let (topo, _) = d.sample(2);
        let (_, stats) = distributed_emodel(&topo, &AlwaysAwake);
        assert!(stats.phase2_seeds > 0, "hole should create phase-2 seeds");
        assert!(matches_centralized(&topo, &AlwaysAwake));
    }

    #[test]
    fn theorem3_message_budget() {
        // Theorem 3: "the total cost of updates is less than 4 × N" for
        // the update-from-∞ count; announcements add the seed broadcasts
        // and the re-announcement per accepted revision. Per node this is
        // a small constant.
        for n in [100usize, 200, 300] {
            let (topo, _) = deploy::SyntheticDeployment::paper(n).sample(1);
            let (_, stats) = distributed_emodel(&topo, &AlwaysAwake);
            let per_node = stats.announcements_per_node(topo.len());
            assert!(
                per_node <= 6.0,
                "n={n}: {per_node:.2} announcements/node — not O(1)-ish"
            );
        }
    }

    #[test]
    fn update_counts_scale_linearly() {
        // The O(1)-per-node claim means updates grow ~linearly in n, not
        // quadratically: compare per-node rates at two sizes.
        let (t1, _) = deploy::SyntheticDeployment::paper(100).sample(3);
        let (t2, _) = deploy::SyntheticDeployment::paper(300).sample(3);
        let (_, s1) = distributed_emodel(&t1, &AlwaysAwake);
        let (_, s2) = distributed_emodel(&t2, &AlwaysAwake);
        let r1 = s1.updates as f64 / t1.len() as f64;
        let r2 = s2.updates as f64 / t2.len() as f64;
        assert!(
            r2 <= r1 * 2.5,
            "update rate grew superlinearly: {r1:.2} → {r2:.2}"
        );
    }
}
