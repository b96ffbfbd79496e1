//! The UDG protocol interference model.
//!
//! Two concurrent senders `u` and `v` conflict when some *uninformed* node
//! would hear both: `N(u) ∩ N(v) ∩ W̄ ≠ ∅` (Eq. 1, constraint 3 — informed
//! common neighbors don't matter because they discard duplicates). This
//! crate provides:
//!
//! * [`conflicts`] — the pairwise predicate;
//! * [`ConflictGraph`] — the conflict relation over a candidate sender set,
//!   stored as bitset adjacency so the coloring crate can enumerate
//!   conflict-free sets with word-parallel operations;
//! * [`ConflictGraphBuilder`] — incremental maintenance of a conflict
//!   graph across the small state deltas of a broadcast search (uninformed
//!   set shrinks, candidate list churns by a few nodes), with cached
//!   per-pair witness sets and reusable row buffers;
//! * [`resolve_receptions`] — receiver-side collision resolution for
//!   simulating *unscheduled* protocols (e.g. naive flooding, where the
//!   broadcast storm of reference \[17\] shows up as collisions).
//!
//! Since the `wsn-phy` crate landed, the conflict *semantics* are
//! pluggable: [`ConflictGraphBuilder::update_with`] and
//! [`ConflictGraph::build_with_model`] accept any
//! [`wsn_phy::ConflictModel`] (protocol, pairwise SINR, K-channel
//! wrappers), maintaining graphs incrementally through the model's
//! witness-set factorization. The free functions here remain the protocol
//! model's fast paths and the `update`/`build` entry points are pinned to
//! them bit for bit.

mod builder;

pub use builder::{ConflictGraphBuilder, ConflictStats};
pub use wsn_phy::ReceptionOutcome;

use wsn_bitset::NodeSet;
use wsn_phy::ConflictModel;
use wsn_topology::{NodeId, Topology};

/// `true` when concurrent transmissions by `u` and `v` would collide at
/// some member of `uninformed` (the paper's signal-conflict predicate).
#[inline]
pub fn conflicts(topo: &Topology, u: NodeId, v: NodeId, uninformed: &NodeSet) -> bool {
    topo.neighbor_set(u)
        .triple_intersects(topo.neighbor_set(v), uninformed)
}

/// The conflict relation over an ordered candidate sender list.
///
/// Indexes are positions in `candidates`, not node ids; adjacency is one
/// bitset row per candidate. Rows are symmetric and irreflexive.
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    candidates: Vec<NodeId>,
    rows: Vec<NodeSet>,
    /// `(node, index)` sorted by node id — the candidate→index map behind
    /// [`ConflictGraph::index_of`].
    by_id: Vec<(NodeId, u32)>,
}

impl ConflictGraph {
    /// Builds the conflict graph of `candidates` against the uninformed set.
    ///
    /// `O(k²)` pairwise tests, each a fused word-parallel triple
    /// intersection; `k` (simultaneous eligible senders) is small compared
    /// to `n` in every workload the paper evaluates. Hot loops that build
    /// graphs per search state should prefer a reused
    /// [`ConflictGraphBuilder`] instead.
    pub fn build(topo: &Topology, candidates: &[NodeId], uninformed: &NodeSet) -> Self {
        Self::build_with_model(&wsn_phy::ProtocolModel, topo, candidates, uninformed)
    }

    /// As [`ConflictGraph::build`], under an arbitrary conflict model.
    /// One-shot; hot loops should prefer
    /// [`ConflictGraphBuilder::update_with`].
    pub fn build_with_model<M: ConflictModel>(
        model: &M,
        topo: &Topology,
        candidates: &[NodeId],
        uninformed: &NodeSet,
    ) -> Self {
        let k = candidates.len();
        let mut rows = vec![NodeSet::new(k); k];
        for i in 0..k {
            for j in (i + 1)..k {
                if model.conflicts(topo, candidates[i], candidates[j], uninformed) {
                    rows[i].insert(j);
                    rows[j].insert(i);
                }
            }
        }
        let mut cg = ConflictGraph {
            candidates: candidates.to_vec(),
            rows,
            by_id: Vec::new(),
        };
        cg.rebuild_index();
        cg
    }

    /// Rebuilds the sorted candidate→index map after `candidates` changed.
    fn rebuild_index(&mut self) {
        self.by_id.clear();
        self.by_id.extend(
            self.candidates
                .iter()
                .enumerate()
                .map(|(i, &u)| (u, i as u32)),
        );
        self.by_id.sort_unstable();
    }

    /// Index of candidate `u` in this graph, if present (`O(log k)`).
    #[inline]
    pub fn index_of(&self, u: NodeId) -> Option<usize> {
        self.by_id
            .binary_search_by_key(&u, |&(v, _)| v)
            .ok()
            .map(|p| self.by_id[p].1 as usize)
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when there are no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The candidate list this graph indexes into.
    #[inline]
    pub fn candidates(&self) -> &[NodeId] {
        &self.candidates
    }

    /// Node id of candidate `i`.
    #[inline]
    pub fn node(&self, i: usize) -> NodeId {
        self.candidates[i]
    }

    /// Conflict row of candidate `i` (bitset over candidate indices).
    #[inline]
    pub fn row(&self, i: usize) -> &NodeSet {
        &self.rows[i]
    }

    /// `true` when candidates `i` and `j` conflict.
    #[inline]
    pub fn conflict(&self, i: usize, j: usize) -> bool {
        self.rows[i].contains(j)
    }

    /// `true` when candidate `i` conflicts with any member of `set`
    /// (bitset over candidate indices).
    #[inline]
    pub fn conflicts_with_set(&self, i: usize, set: &NodeSet) -> bool {
        self.rows[i].intersects(set)
    }

    /// Number of conflict edges.
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(NodeSet::len).sum::<usize>() / 2
    }
}

/// Resolves which uninformed nodes receive when all of `senders` transmit
/// concurrently under the *protocol model*: a node receives iff exactly
/// one of its neighbors is sending; two or more produce a collision (the
/// broadcast-storm failure mode of \[17\]).
///
/// Scheduled protocols never produce collisions (their sender sets are
/// conflict-free by construction — the schedule verifier asserts it); this
/// function exists to *simulate* unscheduled protocols and to double-check
/// schedules independently of the predicate used to build them. Other
/// conflict regimes resolve through their model's
/// [`wsn_phy::ConflictModel::resolve_receptions`].
pub fn resolve_receptions(
    topo: &Topology,
    senders: &NodeSet,
    uninformed: &NodeSet,
) -> ReceptionOutcome {
    wsn_phy::ProtocolModel.resolve_receptions(topo, senders, uninformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::Point;

    /// The Figure 2(a) shape: 0-1, 0-2, 1-3, 2-3, 1-4 (our ids), conflict
    /// between 1 and 2 at uninformed 3.
    fn diamond() -> Topology {
        Topology::unit_disk(
            vec![
                Point::new(0.0, 0.0),  // 0
                Point::new(0.9, 0.7),  // 1
                Point::new(0.9, -0.7), // 2
                Point::new(1.8, 0.0),  // 3
                Point::new(1.4, 1.5),  // 4
            ],
            1.2,
        )
    }

    #[test]
    fn conflict_requires_uninformed_common_neighbor() {
        let t = diamond();
        let mut uninformed = NodeSet::full(5);
        uninformed.remove(0);
        uninformed.remove(1);
        uninformed.remove(2);
        // 1 and 2 share uninformed neighbor 3 → conflict.
        assert!(conflicts(&t, NodeId(1), NodeId(2), &uninformed));
        // Once 3 is informed, the conflict disappears (only 0 in common,
        // and 0 is informed).
        uninformed.remove(3);
        assert!(!conflicts(&t, NodeId(1), NodeId(2), &uninformed));
    }

    #[test]
    fn conflict_graph_structure() {
        let t = diamond();
        let mut uninformed = NodeSet::full(5);
        for i in [0usize, 1, 2] {
            uninformed.remove(i);
        }
        let cg = ConflictGraph::build(&t, &[NodeId(1), NodeId(2)], &uninformed);
        assert_eq!(cg.len(), 2);
        assert!(cg.conflict(0, 1));
        assert!(cg.conflict(1, 0));
        assert!(!cg.conflict(0, 0));
        assert_eq!(cg.edge_count(), 1);
        let mut chosen = NodeSet::new(2);
        chosen.insert(0);
        assert!(cg.conflicts_with_set(1, &chosen));
    }

    #[test]
    fn single_sender_reaches_all_uninformed_neighbors() {
        let t = diamond();
        let senders = NodeSet::from_indices(5, [0]);
        let uninformed = NodeSet::from_indices(5, [1, 2, 3, 4]);
        let out = resolve_receptions(&t, &senders, &uninformed);
        assert_eq!(out.received.to_vec(), vec![1, 2]);
        assert!(out.collided.is_empty());
    }

    #[test]
    fn concurrent_conflicting_senders_collide_at_common_neighbor() {
        let t = diamond();
        let senders = NodeSet::from_indices(5, [1, 2]);
        let uninformed = NodeSet::from_indices(5, [3, 4]);
        let out = resolve_receptions(&t, &senders, &uninformed);
        // 3 hears both 1 and 2 → collision; 4 hears only 1 → receives.
        assert_eq!(out.collided.to_vec(), vec![3]);
        assert_eq!(out.received.to_vec(), vec![4]);
    }

    #[test]
    fn informed_nodes_are_ignored() {
        let t = diamond();
        let senders = NodeSet::from_indices(5, [1, 2]);
        // 3 already informed → no collision recorded anywhere.
        let uninformed = NodeSet::from_indices(5, [4]);
        let out = resolve_receptions(&t, &senders, &uninformed);
        assert_eq!(out.received.to_vec(), vec![4]);
        assert!(out.collided.is_empty());
    }

    #[test]
    fn empty_sender_set_reaches_nobody() {
        let t = diamond();
        let out = resolve_receptions(&t, &NodeSet::new(5), &NodeSet::full(5));
        assert!(out.received.is_empty());
        assert!(out.collided.is_empty());
    }
}
