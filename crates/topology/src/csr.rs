//! Compressed sparse row adjacency storage.

use crate::NodeId;

/// Undirected adjacency in CSR form: one contiguous neighbor array plus
/// per-node offsets. Neighbor lists are sorted by id, which gives
/// deterministic iteration order everywhere downstream (greedy coloring
/// tie-breaks depend on it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    neighbors: Vec<NodeId>,
}

impl Csr {
    /// Builds from an edge list over `n` nodes. Each undirected edge appears
    /// once in `edges`; self-loops and duplicates are rejected.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, or duplicate edges.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut degree = vec![0u32; n];
        for &(u, v) in edges {
            assert!(u != v, "self-loop at node {u}");
            assert!(u.idx() < n && v.idx() < n, "edge ({u}, {v}) out of range");
            degree[u.idx()] += 1;
            degree[v.idx()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![NodeId(0); acc as usize];
        for &(u, v) in edges {
            neighbors[cursor[u.idx()] as usize] = v;
            cursor[u.idx()] += 1;
            neighbors[cursor[v.idx()] as usize] = u;
            cursor[v.idx()] += 1;
        }
        let mut csr = Csr { offsets, neighbors };
        for u in 0..n {
            let range = csr.range(u);
            csr.neighbors[range].sort_unstable();
        }
        for u in 0..n {
            let ns = csr.neighbors_of(NodeId(u as u32));
            for w in ns.windows(2) {
                assert!(w[0] != w[1], "duplicate edge at node {u}");
            }
        }
        csr
    }

    #[inline]
    fn range(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Sorted neighbor list of `u`.
    #[inline]
    pub fn neighbors_of(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.range(u.idx())]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.range(u.idx()).len()
    }

    /// `true` when `u` and `v` are adjacent (binary search on the sorted
    /// neighbor list).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors_of(u).binary_search(&v).is_ok()
    }

    /// Iterates all undirected edges once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.len()).flat_map(move |u| {
            let u = NodeId(u as u32);
            self.neighbors_of(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn builds_sorted_adjacency() {
        let csr = Csr::from_edges(4, &[(id(2), id(0)), (id(0), id(1)), (id(3), id(0))]);
        assert_eq!(csr.neighbors_of(id(0)), &[id(1), id(2), id(3)]);
        assert_eq!(csr.degree(id(0)), 3);
        assert_eq!(csr.degree(id(1)), 1);
        assert_eq!(csr.edge_count(), 3);
        assert!(csr.has_edge(id(0), id(3)));
        assert!(csr.has_edge(id(3), id(0)));
        assert!(!csr.has_edge(id(1), id(2)));
    }

    #[test]
    fn isolated_nodes_have_empty_lists() {
        let csr = Csr::from_edges(3, &[(id(0), id(1))]);
        assert!(csr.neighbors_of(id(2)).is_empty());
        assert_eq!(csr.degree(id(2)), 0);
    }

    #[test]
    fn edges_iterates_each_once() {
        let csr = Csr::from_edges(4, &[(id(0), id(1)), (id(1), id(2)), (id(2), id(3))]);
        let edges: Vec<_> = csr.edges().collect();
        assert_eq!(edges, vec![(id(0), id(1)), (id(1), id(2)), (id(2), id(3))]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        Csr::from_edges(2, &[(id(1), id(1))]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edges() {
        Csr::from_edges(2, &[(id(0), id(1)), (id(1), id(0))]);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edges(0, &[]);
        assert!(csr.is_empty());
        assert_eq!(csr.edge_count(), 0);
    }
}
