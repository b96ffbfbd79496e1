//! Network-edge detection: convex hull seeds plus angular-gap boundary
//! construction (the paper's references \[3\] and \[6\]).
//!
//! Algorithm 2 step 1 "constitutes the edge of the networks" by combining
//! the convex hull with a boundary-construction walk. Reference \[6\]
//! (Goldenberg et al.) is a mobility-control paper, so the construction is
//! under-specified; we substitute the standard angular-gap criterion used
//! throughout the WSN hole-detection literature:
//!
//! * every convex-hull vertex is an edge node;
//! * any node whose neighbor bearings leave an empty angular sector of at
//!   least [`DEFAULT_GAP_THRESHOLD`] faces open space and is an edge node.
//!
//! The distinction between *network-edge* nodes (pass 1 seeds of the
//! E-model) and *hole-boundary* local minima (seeded in pass 2) follows the
//! paper exactly: pass 2 only promotes nodes that are still `∞` after the
//! first relaxation.

use crate::{NodeId, Topology};
use wsn_geom::{convex_hull, max_angular_gap};

/// Default angular-gap threshold (120°) above which a node is considered to
/// face open space. 120° is the classical value: an interior node of a
/// reasonably dense UDG deployment has neighbors in every 120° sector.
pub const DEFAULT_GAP_THRESHOLD: f64 = 2.0 * std::f64::consts::FRAC_PI_3;

/// Edge nodes of the network: convex-hull vertices plus nodes whose
/// largest angular gap is at least [`DEFAULT_GAP_THRESHOLD`].
///
/// Returns a sorted, deduplicated list.
pub fn edge_nodes(topo: &Topology) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = convex_hull(topo.positions())
        .into_iter()
        .map(|i| NodeId(i as u32))
        .collect();
    for u in topo.nodes() {
        let pu = topo.position(u);
        let neighbor_pts: Vec<_> = topo
            .neighbors(u)
            .iter()
            .map(|&v| topo.position(v))
            .collect();
        if max_angular_gap(&pu, &neighbor_pts) >= DEFAULT_GAP_THRESHOLD {
            out.push(u);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::Point;

    /// 5×5 unit grid with radius 1.1 (4-connectivity plus nothing else).
    fn grid5() -> Topology {
        let mut pts = Vec::new();
        for y in 0..5 {
            for x in 0..5 {
                pts.push(Point::new(x as f64, y as f64));
            }
        }
        Topology::unit_disk(pts, 1.1)
    }

    #[test]
    fn grid_perimeter_is_edge_interior_is_not() {
        let t = grid5();
        let edges = edge_nodes(&t);
        // Corner (0,0) = id 0 is a hull vertex.
        assert!(edges.contains(&NodeId(0)));
        // Side midpoint (2,0) = id 2: neighbors at W/E/N only → gap 180°.
        assert!(edges.contains(&NodeId(2)));
        // Interior center (2,2) = id 12: neighbors in all four directions →
        // max gap 90° < 120°.
        assert!(!edges.contains(&NodeId(12)));
    }

    #[test]
    fn all_perimeter_nodes_detected() {
        let t = grid5();
        let edges = edge_nodes(&t);
        for y in 0..5usize {
            for x in 0..5usize {
                let id = NodeId((y * 5 + x) as u32);
                let on_perimeter = x == 0 || x == 4 || y == 0 || y == 4;
                assert_eq!(
                    edges.contains(&id),
                    on_perimeter,
                    "node ({x},{y}) edge classification"
                );
            }
        }
    }

    #[test]
    fn isolated_node_is_edge() {
        let t = Topology::unit_disk(vec![Point::new(0.0, 0.0)], 1.0);
        assert_eq!(edge_nodes(&t), vec![NodeId(0)]);
    }
}
