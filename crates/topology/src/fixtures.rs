//! The paper's example networks, reconstructed as UDG topologies.
//!
//! The paper never prints coordinates, but Tables II–IV trace the greedy
//! color scheme and the time counter `M` on the Figure 1 and Figure 2
//! networks in enough detail to pin the adjacency exactly (every receiver
//! set and every conflict in the traces constrains `N(u)` — see the module
//! tests). The coordinates below realize those adjacencies under the UDG
//! rule *and* the quadrant relations of the §IV-E E-model worked example
//! (`E_2(7) = E_2(8) = E_2(9) = 0`, `E_2(0) = E_2(4) = E_2(5) = E_2(6) =
//! E_2(10) = 1`, `E_2(1) = 2`).
//!
//! Two receiver sets in Table III are inconsistent with the rest of the
//! trace as printed; we follow the majority reading for both deviations
//! (they look like digit-level typos):
//! `{s,0−4,6,9−10}` is read as `{s,0−4,6,8−10}`, and the round indices of
//! the last three task groups are off by one.

use crate::{NodeId, Topology};
use wsn_geom::Point;

/// A fixture: a topology, its broadcast source, and a labeling that maps
/// node ids back to the paper's names (`s`, `0`…`10` for Figure 1;
/// `1`…`5` for Figure 2).
pub struct Fixture {
    /// The topology.
    pub topo: Topology,
    /// Broadcast source.
    pub source: NodeId,
    /// Paper label per node id.
    pub labels: Vec<&'static str>,
}

impl Fixture {
    /// Paper label of `u`.
    pub fn label(&self, u: NodeId) -> &'static str {
        self.labels[u.idx()]
    }

    /// Node id for a paper label.
    ///
    /// # Panics
    ///
    /// Panics if the label does not exist.
    pub fn id(&self, label: &str) -> NodeId {
        NodeId(
            self.labels
                .iter()
                .position(|&l| l == label)
                .unwrap_or_else(|| panic!("no node labeled {label}")) as u32,
        )
    }
}

/// Figure 1: the 12-node motivating example (`s` plus nodes 0–10).
///
/// Node ids 0–10 are the paper's nodes 0–10; id 11 is the source `s`.
/// Intended adjacency (paper labels):
///
/// ```text
/// s: 0 1 2            4: 1 3 8 9 10      8: 3 4 9 10
/// 0: s 1 2 3 5 6 7    5: 0 6 7           9: 3 4 6 8
/// 1: s 0 2 3 4 10     6: 0 3 5 7 9      10: 1 4 8
/// 2: s 0 1 3          7: 0 5 6
/// 3: 0 1 2 4 6 8 9
/// ```
///
/// Edges among `{0,1,2}` and `5–7` are not constrained by any trace row
/// (those nodes are always informed simultaneously) and arise naturally
/// from the geometry.
pub fn fig1() -> Fixture {
    // Positions in feet; radius 10 ft as in §V-A (coordinates are the
    // hand-verified unit layout scaled by 10).
    let positions = vec![
        Point::new(39.0, 5.5),  // 0
        Point::new(46.0, 12.0), // 1
        Point::new(43.0, 7.5),  // 2
        Point::new(38.0, 13.5), // 3
        Point::new(42.5, 18.0), // 4
        Point::new(30.0, 4.5),  // 5
        Point::new(32.0, 7.0),  // 6
        Point::new(29.5, 8.0),  // 7
        Point::new(40.0, 21.0), // 8
        Point::new(36.2, 15.8), // 9
        Point::new(49.0, 17.5), // 10
        Point::new(47.0, 3.0),  // s
    ];
    let topo = Topology::unit_disk(positions, 10.0);
    Fixture {
        topo,
        source: NodeId(11),
        labels: vec!["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "s"],
    }
}

/// Figure 2(a): the 5-node example (nodes 1–5, source node 1) used by
/// Tables II and IV.
///
/// Adjacency (paper labels): `1–2, 1–3, 2–4, 3–4, 2–5`; the conflict is at
/// node 4 (common uninformed neighbor of 2 and 3). Node ids are the paper
/// labels minus one.
pub fn fig2a() -> Fixture {
    // Unit layout scaled so the radius is 10 (distances 1.140 → 9.5).
    let positions = vec![
        Point::new(0.0, 10.0),    // 1 (source)
        Point::new(7.5, 15.833),  // 2
        Point::new(7.5, 4.167),   // 3
        Point::new(15.0, 10.0),   // 4
        Point::new(11.667, 22.5), // 5
    ];
    let topo = Topology::unit_disk(positions, 10.0);
    Fixture {
        topo,
        source: NodeId(0),
        labels: vec!["1", "2", "3", "4", "5"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_adjacency(f: &Fixture, expected: &[(&str, &[&str])]) {
        for &(u, nbrs) in expected {
            let uid = f.id(u);
            let mut got: Vec<&str> = f.topo.neighbors(uid).iter().map(|&v| f.label(v)).collect();
            got.sort_by_key(|l| l.parse::<i32>().unwrap_or(-1));
            let mut want: Vec<&str> = nbrs.to_vec();
            want.sort_by_key(|l| l.parse::<i32>().unwrap_or(-1));
            assert_eq!(got, want, "neighborhood of paper node {u}");
        }
    }

    #[test]
    fn fig1_adjacency_matches_table_iii() {
        let f = fig1();
        assert_eq!(f.topo.len(), 12);
        assert_adjacency(
            &f,
            &[
                ("s", &["0", "1", "2"]),
                ("0", &["s", "1", "2", "3", "5", "6", "7"]),
                ("1", &["s", "0", "2", "3", "4", "10"]),
                ("2", &["s", "0", "1", "3"]),
                ("3", &["0", "1", "2", "4", "6", "8", "9"]),
                ("4", &["1", "3", "8", "9", "10"]),
                ("5", &["0", "6", "7"]),
                ("6", &["0", "3", "5", "7", "9"]),
                ("7", &["0", "5", "6"]),
                ("8", &["3", "4", "9", "10"]),
                ("9", &["3", "4", "6", "8"]),
                ("10", &["1", "4", "8"]),
            ],
        );
    }

    #[test]
    fn fig1_nodes_8_9_are_farthest_at_three_hops() {
        // §II: "this approach assumes that the last relay will reach {8, 9}
        // only because they are the farthest (3-hop distance) away from s".
        let f = fig1();
        let hops = crate::metrics::bfs_hops(&f.topo, f.source);
        assert_eq!(hops[f.id("8").idx()], 3);
        assert_eq!(hops[f.id("9").idx()], 3);
        let ecc = crate::metrics::eccentricity(&f.topo, f.source).unwrap();
        assert_eq!(ecc, 3);
        // And only 8, 9 are at 3 hops.
        let at3: Vec<&str> = f
            .topo
            .nodes()
            .filter(|&u| hops[u.idx()] == 3)
            .map(|u| f.label(u))
            .collect();
        assert_eq!(at3, vec!["8", "9"]);
    }

    #[test]
    fn fig1_conflict_structure_at_first_hop() {
        // Nodes 0, 1, 2 pairwise share the uninformed neighbor 3, which is
        // why they need three distinct colors (§II, Figure 1).
        let f = fig1();
        let three = f.id("3");
        for (a, b) in [("0", "1"), ("0", "2"), ("1", "2")] {
            let (ia, ib) = (f.id(a), f.id(b));
            assert!(
                f.topo.neighbor_set(ia).contains(three.idx())
                    && f.topo.neighbor_set(ib).contains(three.idx()),
                "3 must be a common neighbor of {a} and {b}"
            );
        }
    }

    #[test]
    fn fig2a_adjacency_matches_table_ii() {
        let f = fig2a();
        assert_eq!(f.topo.len(), 5);
        assert_adjacency(
            &f,
            &[
                ("1", &["2", "3"]),
                ("2", &["1", "4", "5"]),
                ("3", &["1", "4"]),
                ("4", &["2", "3"]),
                ("5", &["2"]),
            ],
        );
    }

    #[test]
    fn fig2a_conflict_at_node_4() {
        // Nodes 2 and 3 share the uninformed neighbor 4 (the "conflict at
        // u4" of Figure 2 (a)).
        let f = fig2a();
        let common = f
            .topo
            .neighbor_set(f.id("2"))
            .intersection(f.topo.neighbor_set(f.id("3")));
        assert_eq!(common.to_vec(), vec![f.id("1").idx(), f.id("4").idx()]);
    }

    #[test]
    fn label_roundtrip() {
        let f = fig1();
        for u in f.topo.nodes() {
            assert_eq!(f.id(f.label(u)), u);
        }
    }

    #[test]
    #[should_panic(expected = "no node labeled")]
    fn unknown_label_panics() {
        fig2a().id("99");
    }
}
