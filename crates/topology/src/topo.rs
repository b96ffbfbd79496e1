//! The [`Topology`] type: positions + radius + derived adjacency.

use crate::{Csr, NodeId};
use std::sync::{Arc, OnceLock};
use wsn_bitset::NodeSet;
use wsn_geom::{CellGrid, Point, Quadrant};

/// A WSN topology under the unit-disk-graph model.
///
/// Owns the node positions, the communication radius and the CSR adjacency,
/// which is the topology's one adjacency: `O(n + E)` memory at any scale.
/// The paper states every interference predicate as a set expression over
/// `N(u)` masks and the informed set `W`; [`Topology::neighbor_set`] serves
/// those masks as a view of the CSR, built for all nodes on its first call.
/// They cost `n²/8` bytes, so only the small-`n` exact tier asks for them;
/// the paths that run at 10k–1M nodes read [`Topology::neighbors`].
///
/// A topology never changes once built, so clones share one copy of all
/// of it, masks included: a clone costs a reference count, not a second
/// adjacency.
#[derive(Clone, Debug)]
pub struct Topology {
    shared: Arc<Shared>,
}

/// The data every clone of one [`Topology`] shares.
#[derive(Debug)]
struct Shared {
    positions: Vec<Point>,
    radius: f64,
    csr: Csr,
    /// `neighbor_sets[u]` = `N(u)` as a bitset (excludes `u` itself), filled
    /// from the CSR by the first [`Topology::neighbor_set`] call.
    neighbor_sets: OnceLock<Box<[NodeSet]>>,
    /// Process-unique identity token (clones share it — their adjacency is
    /// identical). Lets per-topology caches detect a swap to a *different*
    /// topology that happens to have the same node count.
    token: u64,
}

/// Source of [`Topology::token`] values; 0 is reserved for "no topology".
static NEXT_TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl Topology {
    /// Builds the UDG topology of `positions` with communication `radius`.
    ///
    /// Neighbor discovery uses a uniform grid of `radius`-sized cells, so
    /// construction is `O(n · expected-neighbors)` rather than `O(n²)` —
    /// this matters for the Monte-Carlo sweeps that build thousands of
    /// 300-node instances.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive or any coordinate is
    /// non-finite.
    pub fn unit_disk(positions: Vec<Point>, radius: f64) -> Self {
        assert!(radius > 0.0, "radius must be positive");
        assert!(
            positions.iter().all(|p| p.x.is_finite() && p.y.is_finite()),
            "positions must be finite"
        );
        let n = positions.len();

        // Spatial-hash candidate generation (shared with gain tables and
        // conflict-pair enumeration via `wsn_geom::CellGrid`).
        let grid = CellGrid::build(&positions, radius);
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        grid.for_each_pair_within(&positions, radius, |i, j| {
            edges.push((NodeId(i), NodeId(j)));
        });

        Self::from_parts(positions, radius, Csr::from_edges(n, &edges))
    }

    fn from_parts(positions: Vec<Point>, radius: f64, csr: Csr) -> Self {
        Topology {
            shared: Arc::new(Shared {
                positions,
                radius,
                csr,
                neighbor_sets: OnceLock::new(),
                token: NEXT_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            }),
        }
    }

    /// Process-unique identity of this topology (shared by clones, never 0).
    ///
    /// Caches that hold per-topology state (e.g. the incremental conflict
    /// builder's witness sets) key their validity on this instead of the
    /// node count, so handing them a different same-sized topology
    /// invalidates them instead of silently corrupting results.
    #[inline]
    pub fn token(&self) -> u64 {
        self.shared.token
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.shared.positions.len()
    }

    /// `true` when the topology has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.shared.positions.is_empty()
    }

    /// Communication radius.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.shared.radius
    }

    /// Position of `u`.
    #[inline]
    pub fn position(&self, u: NodeId) -> Point {
        self.shared.positions[u.idx()]
    }

    /// All positions.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.shared.positions
    }

    /// The CSR adjacency.
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.shared.csr
    }

    /// Sorted neighbor list `N(u)`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.shared.csr.neighbors_of(u)
    }

    /// Neighbor mask `N(u)` as a bitset.
    ///
    /// The first call builds the masks of every node from the CSR
    /// (`n²/8` bytes, `O(n²/64 + E)` time); later calls are a lookup. Meant
    /// for the small-`n` exact tier: code that may run on large topologies
    /// should walk [`Topology::neighbors`] instead.
    #[inline]
    pub fn neighbor_set(&self, u: NodeId) -> &NodeSet {
        &self
            .shared
            .neighbor_sets
            .get_or_init(|| self.build_neighbor_sets())[u.idx()]
    }

    fn build_neighbor_sets(&self) -> Box<[NodeSet]> {
        let n = self.len();
        self.nodes()
            .map(|u| NodeSet::from_indices(n, self.neighbors(u).iter().map(|v| v.idx())))
            .collect()
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.shared.csr.degree(u)
    }

    /// `true` when `u` and `v` are adjacent.
    #[inline]
    pub fn adjacent(&self, u: NodeId, v: NodeId) -> bool {
        self.shared.csr.has_edge(u, v)
    }

    /// Iterates all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }

    /// Average degree, a key density diagnostic in §V (density × πr²).
    pub fn average_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        2.0 * self.shared.csr.edge_count() as f64 / self.len() as f64
    }

    /// `true` when `u` has at least one neighbor in quadrant `q`
    /// (`N(u) ∩ Q_i(u) ≠ ∅`), the emptiness test of Algorithm 2.
    pub fn has_neighbor_in_quadrant(&self, u: NodeId, q: Quadrant) -> bool {
        let pu = self.position(u);
        self.neighbors(u)
            .iter()
            .any(|&v| Quadrant::of(&pu, &self.position(v)) == Some(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_topo() -> Topology {
        // Unit square corners plus center; radius 1.1 connects sides and
        // center-to-corners (corner distance √0.5 ≈ 0.707), but not diagonals
        // (√2 ≈ 1.414).
        Topology::unit_disk(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(0.0, 1.0),
                Point::new(0.5, 0.5),
            ],
            1.1,
        )
    }

    #[test]
    fn udg_edges_match_distances() {
        let t = square_topo();
        assert!(t.adjacent(NodeId(0), NodeId(1)));
        assert!(t.adjacent(NodeId(0), NodeId(3)));
        assert!(!t.adjacent(NodeId(0), NodeId(2)), "diagonal too far");
        assert!(t.adjacent(NodeId(4), NodeId(0)));
        assert_eq!(t.degree(NodeId(4)), 4);
        assert_eq!(t.csr().edge_count(), 8);
    }

    #[test]
    fn neighbor_sets_mirror_csr() {
        let t = square_topo();
        for u in t.nodes() {
            let from_csr: Vec<usize> = t.neighbors(u).iter().map(|v| v.idx()).collect();
            assert_eq!(t.neighbor_set(u).to_vec(), from_csr);
        }
    }

    #[test]
    fn lazy_masks_agree_across_threads_and_clones() {
        let t = Topology::unit_disk(
            (0..200)
                .map(|i| Point::new((i % 20) as f64 * 0.7, (i / 20) as f64 * 0.7))
                .collect(),
            1.0,
        );
        let before = t.clone();
        let masks_match_csr = |t: &Topology| {
            t.nodes().all(|u| {
                let from_csr: Vec<usize> = t.neighbors(u).iter().map(|v| v.idx()).collect();
                t.neighbor_set(u).to_vec() == from_csr
            })
        };
        // Two threads race to fill the masks of one fresh topology.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        masks_match_csr(&t)
                    })
                })
                .collect();
            for r in racers {
                assert!(r.join().unwrap());
            }
        });
        let after = t.clone();
        assert_eq!(before.token(), after.token());
        for u in t.nodes() {
            assert_eq!(before.neighbor_set(u), after.neighbor_set(u));
        }
    }

    #[test]
    fn radius_boundary_is_inclusive() {
        let t = Topology::unit_disk(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)], 1.0);
        assert!(t.adjacent(NodeId(0), NodeId(1)));
    }

    #[test]
    fn grid_bucket_matches_bruteforce() {
        // Deterministic pseudo-random scatter; compare against O(n²).
        let mut state = 0x12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let pts: Vec<Point> = (0..120)
            .map(|_| Point::new(next() * 50.0, next() * 50.0))
            .collect();
        let t = Topology::unit_disk(pts.clone(), 10.0);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let expect = pts[i].dist2(&pts[j]) <= 100.0;
                assert_eq!(
                    t.adjacent(NodeId(i as u32), NodeId(j as u32)),
                    expect,
                    "edge ({i},{j}) mismatch"
                );
            }
        }
    }

    #[test]
    fn quadrant_neighbors() {
        let t = square_topo();
        // From the center (0.5,0.5): corner 2 (1,1) is Q1, corner 3 (0,1) is
        // Q2, corner 0 (0,0) is Q3, corner 1 (1,0) is Q4.
        let c = NodeId(4);
        for q in Quadrant::ALL {
            assert!(t.has_neighbor_in_quadrant(c, q), "center misses {q:?}");
        }
        // Corner 0 has no Q3 neighbor: everything is up-right of it.
        assert!(!t.has_neighbor_in_quadrant(NodeId(0), Quadrant::Q3));
        assert!(t.has_neighbor_in_quadrant(NodeId(0), Quadrant::Q1));
    }

    #[test]
    fn average_degree() {
        let t = square_topo();
        assert!((t.average_degree() - 16.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_rejected() {
        Topology::unit_disk(vec![Point::new(0.0, 0.0)], 0.0);
    }

    #[test]
    fn negative_coordinates_supported() {
        let t = Topology::unit_disk(
            vec![
                Point::new(-5.0, -5.0),
                Point::new(-4.5, -5.0),
                Point::new(5.0, 5.0),
            ],
            1.0,
        );
        assert!(t.adjacent(NodeId(0), NodeId(1)));
        assert!(!t.adjacent(NodeId(0), NodeId(2)));
    }
}
