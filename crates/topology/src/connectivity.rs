//! Connectivity via union-find.
//!
//! Deployment generation (§V-A) resamples until the instance is connected —
//! a broadcast can only complete on a connected graph — so the check runs
//! on every candidate deployment and should be near-linear.

use crate::Topology;

/// Weighted quick-union with path halving.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

/// `true` when every node can reach every other node.
pub fn is_connected(topo: &Topology) -> bool {
    if topo.len() <= 1 {
        return true;
    }
    let mut uf = UnionFind::new(topo.len());
    for (u, v) in topo.csr().edges() {
        uf.union(u.0, v.0);
    }
    let root = uf.find(0);
    (1..topo.len() as u32).all(|i| uf.find(i) == root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;
    use wsn_geom::Point;

    #[test]
    fn connected_path() {
        let t = Topology::unit_disk((0..4).map(|i| Point::new(i as f64, 0.0)).collect(), 1.0);
        assert!(is_connected(&t));
    }

    #[test]
    fn two_clusters() {
        let t = Topology::unit_disk(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(11.0, 0.0),
            ],
            1.0,
        );
        assert!(!is_connected(&t));
    }

    #[test]
    fn singleton_and_empty_are_connected() {
        let t1 = Topology::unit_disk(vec![Point::new(0.0, 0.0)], 1.0);
        assert!(is_connected(&t1));
        let t0 = Topology::unit_disk(vec![], 1.0);
        assert!(is_connected(&t0));
    }

    #[test]
    fn isolated_node_detected() {
        let t = Topology::unit_disk(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.5, 0.0),
                Point::new(30.0, 30.0),
            ],
            1.0,
        );
        assert!(!is_connected(&t));
    }
}
