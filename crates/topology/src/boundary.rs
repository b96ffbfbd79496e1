//! Network-edge detection by angular-gap boundary construction (the
//! paper's references \[3\] and \[6\]).
//!
//! Algorithm 2 step 1 "constitutes the edge of the networks" by combining
//! the convex hull with a boundary-construction walk. Reference \[6\]
//! (Goldenberg et al.) is a mobility-control paper, so the construction is
//! under-specified; we substitute the standard angular-gap criterion used
//! throughout the WSN hole-detection literature: any node whose neighbor
//! bearings leave an empty angular sector of at least
//! [`DEFAULT_GAP_THRESHOLD`] faces open space and is an edge node.
//!
//! The convex hull needs no pass of its own. A strictly convex hull vertex
//! sees every other node, its neighbors included, inside a cone narrower
//! than 180°, so its gap exceeds 180° and the gap test flags it.
//!
//! The distinction between *network-edge* nodes (pass 1 seeds of the
//! E-model) and *hole-boundary* local minima (seeded in pass 2) follows the
//! paper exactly: pass 2 only promotes nodes that are still `∞` after the
//! first relaxation.

use crate::{NodeId, Topology};
use wsn_geom::{max_angular_gap, Point};

/// Default angular-gap threshold (120°) above which a node is considered to
/// face open space. 120° is the classical value: an interior node of a
/// reasonably dense UDG deployment has neighbors in every 120° sector.
pub const DEFAULT_GAP_THRESHOLD: f64 = 2.0 * std::f64::consts::FRAC_PI_3;

/// Edge nodes of the network: the nodes whose largest angular gap
/// ([`wsn_geom::max_angular_gap`] over their neighbors) is at least
/// [`DEFAULT_GAP_THRESHOLD`]. Every convex-hull vertex is one.
///
/// Returns the nodes in ascending id order.
pub fn edge_nodes(topo: &Topology) -> Vec<NodeId> {
    topo.nodes()
        .filter(|&u| {
            let pu = topo.position(u);
            let neighbors = topo.neighbors(u).iter().map(|&v| topo.position(v));
            !every_sector_held(&pu, neighbors.clone())
                && max_angular_gap(&pu, &neighbors.collect::<Vec<_>>()) >= DEFAULT_GAP_THRESHOLD
        })
        .collect()
}

/// How far, relative to its distance, a neighbor must clear a sector
/// border to count for the sector: about 1e-9 rad, far above the rounding
/// of the `atan2` bearings `max_angular_gap` compares.
const SECTOR_SLACK: f64 = 1e-9;

/// A sound pre-test for "the largest gap is below [`DEFAULT_GAP_THRESHOLD`]",
/// with no bearing and no allocation: each of the six open 60° sectors
/// around `origin`, bordered at multiples of 60°, holds a neighbor strictly
/// inside. An empty arc as wide as the threshold, two sectors, would
/// contain a whole sector, so every gap is narrower. A neighbor within the
/// slack of a border counts for no sector, so a node that fails here may
/// still be interior; `edge_nodes` then decides it with
/// [`max_angular_gap`].
fn every_sector_held(origin: &Point, neighbors: impl Iterator<Item = Point>) -> bool {
    const HALF_SQRT_3: f64 = 0.866_025_403_784_438_6;
    let mut held = 0u8;
    for p in neighbors {
        let (dx, dy) = p.delta(origin);
        let slack = SECTOR_SLACK * (dx.abs() + dy.abs());
        let side = |d: f64| ((d > slack) as u8, (d < -slack) as u8);
        // Cross products with the borders at 0°, 60° and 120°: each is
        // |p − origin| times the sine of the bearing's angle to the border.
        // `above_a` is the half-turn (a°, a° + 180°), `below_a` the other.
        let (above_0, below_0) = side(dy);
        let (below_60, above_60) = side(HALF_SQRT_3 * dx - 0.5 * dy);
        let (below_120, above_120) = side(HALF_SQRT_3 * dx + 0.5 * dy);
        held |= (above_0 & below_60)
            | (above_60 & below_120) << 1
            | (above_120 & above_0) << 2
            | (below_0 & above_60) << 3
            | (below_60 & above_120) << 4
            | (below_120 & below_0) << 5;
    }
    held == 0b11_1111
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Checks `edge_nodes` node by node against the plain gap test. Returns
    /// how many nodes the sector pre-test settled.
    fn assert_matches_gap_test(t: &Topology, what: &str) -> usize {
        let edges = edge_nodes(t);
        let mut settled = 0;
        for u in t.nodes() {
            let pu = t.position(u);
            let pts: Vec<Point> = t.neighbors(u).iter().map(|&v| t.position(v)).collect();
            let gap = max_angular_gap(&pu, &pts);
            assert_eq!(
                edges.binary_search(&u).is_ok(),
                gap >= DEFAULT_GAP_THRESHOLD,
                "{what}: node {u} classified apart from the gap test"
            );
            if every_sector_held(&pu, pts.iter().copied()) {
                assert!(
                    gap < DEFAULT_GAP_THRESHOLD,
                    "{what}: pre-test unsound at {u}"
                );
                settled += 1;
            }
        }
        settled
    }

    /// Rows of a unit triangular lattice: every neighbor of an interior
    /// node lies at a multiple of 60°, on a border of the pre-test's sectors.
    fn triangular(cols: usize, rows: usize, radius: f64) -> Topology {
        let h = 3f64.sqrt() / 2.0;
        let pts = (0..rows)
            .flat_map(|y| {
                (0..cols).map(move |x| Point::new(x as f64 + 0.5 * (y % 2) as f64, y as f64 * h))
            })
            .collect();
        Topology::unit_disk(pts, radius)
    }

    #[test]
    fn sector_pre_test_never_changes_a_classification() {
        let mut settled = 0;
        for n in [50, 150, 300] {
            for seed in 0..3 {
                let (t, _) = crate::deploy::SyntheticDeployment::paper(n).sample(seed);
                settled += assert_matches_gap_test(&t, &format!("paper({n}) seed {seed}"));
            }
        }
        assert!(
            settled > 0,
            "the pre-test settled no node of a paper deployment"
        );
        // The hole deployments of the E-model's pass-2 test.
        for seed in 0..8 {
            let mut d = crate::deploy::SyntheticDeployment::paper(250);
            d.hole = Some((Point::new(25.0, 25.0), 9.0));
            let (t, _) = d.sample(seed);
            assert_matches_gap_test(&t, &format!("hole seed {seed}"));
        }
        // Bearings exactly on the axes, then with diagonals added.
        assert_eq!(
            assert_matches_gap_test(&crate::deploy::grid(7, 7, 1.0, 1.1), "grid"),
            0
        );
        assert_matches_gap_test(&crate::deploy::grid(7, 7, 1.0, 1.5), "grid with diagonals");
        // Six neighbors on the sector borders: the pre-test settles nothing
        // and the gap test alone finds the interior. The second ring, at
        // 30° + k·60°, lies inside the sectors.
        let lattice = triangular(9, 9, 1.05);
        assert_eq!(assert_matches_gap_test(&lattice, "lattice"), 0);
        assert!(edge_nodes(&lattice).len() < lattice.len());
        assert!(assert_matches_gap_test(&triangular(9, 9, 1.8), "lattice, two rings") > 0);
    }

    #[test]
    fn isolated_node_is_edge() {
        let t = Topology::unit_disk(vec![Point::new(0.0, 0.0)], 1.0);
        assert_eq!(edge_nodes(&t), vec![NodeId(0)]);
    }
}
