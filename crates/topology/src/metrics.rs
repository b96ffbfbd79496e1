//! Hop-distance metrics: BFS levels, eccentricity, diameter.
//!
//! Hop distance is the yardstick of every bound in the paper: Theorem 1
//! bounds the optimal latency by `d + 2` where `d` is the source
//! eccentricity, and §V-A constrains deployments so the source is 5–8 hops
//! from the farthest node.

use crate::{NodeId, Topology};
use std::collections::VecDeque;
use wsn_bitset::NodeSet;

/// Hop distance marker for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS hop distances from `source`. Unreachable nodes get [`UNREACHABLE`].
pub fn bfs_hops(topo: &Topology, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; topo.len()];
    let mut queue = VecDeque::new();
    dist[source.idx()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.idx()];
        for &v in topo.neighbors(u) {
            if dist[v.idx()] == UNREACHABLE {
                dist[v.idx()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS hop distances from `source` over the subgraph induced by excluding
/// `excluded` (dead nodes under churn). Excluded and unreachable nodes get
/// [`UNREACHABLE`] — the repair tier treats both the same way.
pub fn bfs_hops_masked(topo: &Topology, source: NodeId, excluded: &NodeSet) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; topo.len()];
    if excluded.contains(source.idx()) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source.idx()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.idx()];
        for &v in topo.neighbors(u) {
            if dist[v.idx()] == UNREACHABLE && !excluded.contains(v.idx()) {
                dist[v.idx()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Multi-source BFS: hop distance from the nearest member of `sources`.
///
/// A queue BFS over the CSR lists, so it costs `O(n + E)` on any size of
/// topology. The exact searches take the farthest uninformed node's
/// distance from a word-parallel BFS over the neighbour masks
/// (`mlbs_core::bounds::HopBound`); this function is its test oracle.
pub fn bfs_hops_from_set(topo: &Topology, sources: &NodeSet) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; topo.len()];
    let mut queue = VecDeque::new();
    for s in sources.iter() {
        dist[s] = 0;
        queue.push_back(NodeId(s as u32));
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u.idx()];
        for &v in topo.neighbors(u) {
            if dist[v.idx()] == UNREACHABLE {
                dist[v.idx()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Eccentricity of `source`: the hop distance to the farthest reachable
/// node. Returns `None` when some node is unreachable (disconnected graph),
/// because broadcast completion is then impossible.
pub fn eccentricity(topo: &Topology, source: NodeId) -> Option<u32> {
    let dist = bfs_hops(topo, source);
    let mut max = 0;
    for &d in &dist {
        if d == UNREACHABLE {
            return None;
        }
        max = max.max(d);
    }
    Some(max)
}

/// Graph diameter (max eccentricity over all nodes); `None` if disconnected.
/// `O(n · m)` — fine at evaluation scale, used only in diagnostics.
pub fn diameter(topo: &Topology) -> Option<u32> {
    let mut best = 0;
    for u in topo.nodes() {
        best = best.max(eccentricity(topo, u)?);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::Point;

    /// Path 0-1-2-3-4 (spacing 1, radius 1).
    fn path5() -> Topology {
        Topology::unit_disk((0..5).map(|i| Point::new(i as f64, 0.0)).collect(), 1.0)
    }

    #[test]
    fn path_distances() {
        let t = path5();
        assert_eq!(bfs_hops(&t, NodeId(0)), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_hops(&t, NodeId(2)), vec![2, 1, 0, 1, 2]);
        assert_eq!(eccentricity(&t, NodeId(0)), Some(4));
        assert_eq!(eccentricity(&t, NodeId(2)), Some(2));
        assert_eq!(diameter(&t), Some(4));
    }

    #[test]
    fn disconnected_reports_none() {
        let t = Topology::unit_disk(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)], 1.0);
        assert_eq!(eccentricity(&t, NodeId(0)), None);
        assert_eq!(diameter(&t), None);
        assert_eq!(bfs_hops(&t, NodeId(0))[1], UNREACHABLE);
    }

    #[test]
    fn masked_bfs_skips_dead_nodes() {
        let t = path5();
        let dead = NodeSet::from_indices(5, [2]);
        let d = bfs_hops_masked(&t, NodeId(0), &dead);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        // Node 2 is dead; 3 and 4 are stranded behind it.
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
        assert_eq!(d[4], UNREACHABLE);
        // A dead source reaches nothing.
        assert!(bfs_hops_masked(&t, NodeId(2), &dead)
            .iter()
            .all(|&x| x == UNREACHABLE));
    }

    #[test]
    fn multi_source_takes_nearest() {
        let t = path5();
        let w = NodeSet::from_indices(5, [0, 4]);
        assert_eq!(bfs_hops_from_set(&t, &w), vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn empty_source_set_reaches_nothing() {
        let t = path5();
        let dist = bfs_hops_from_set(&t, &NodeSet::new(5));
        assert!(dist.iter().all(|&d| d == UNREACHABLE));
    }
}
