//! Connected-dominating-set relaying (extension baseline).
//!
//! Gandhi et al. \[4\] build the broadcast tree over a connected dominating
//! set (CDS): only CDS members relay, which reduces redundancy at some cost
//! in latency flexibility. The paper cites this family as prior work; we
//! provide a greedy CDS construction plus a layered scheduler restricted to
//! it.

use mlbs_core::{Schedule, ScheduleEntry};
use wsn_bitset::NodeSet;
use wsn_coloring::greedy_coloring_of_candidates;
use wsn_topology::{metrics, NodeId, Topology};

/// Greedy connected dominating set containing `root`.
///
/// Classic two-phase construction: greedily add the node covering the most
/// uncovered nodes until the set dominates the graph, then connect the
/// pieces through BFS-parents toward `root`. Not minimum (that is NP-hard)
/// but small in practice.
pub fn greedy_connected_dominating_set(topo: &Topology, root: NodeId) -> NodeSet {
    let n = topo.len();
    let mut cds = NodeSet::new(n);
    let mut covered = NodeSet::from_indices(n, topo.neighbors(root).iter().map(|v| v.idx()));
    cds.insert(root.idx());
    covered.insert(root.idx());

    // Phase 1: dominate. Coverage gains only shrink as `covered` grows, so
    // a lazily re-evaluated max-heap reproduces the full-scan greedy
    // *exactly* (same `(gain, Reverse(id))` order, hence the same picks):
    // when a popped entry's recomputed gain still equals its key, no other
    // node can beat it — every other key is an upper bound on that node's
    // current gain, and on key ties the heap already surfaced the smaller
    // id. Each pick costs O(deg) re-evaluations instead of an O(n²) scan,
    // which is what lets the 10k–100k baselines finish.
    let gain_of = |covered: &NodeSet, u: NodeId| -> usize {
        usize::from(!covered.contains(u.idx()))
            + topo
                .neighbors(u)
                .iter()
                .filter(|v| !covered.contains(v.idx()))
                .count()
    };
    let mut heap: std::collections::BinaryHeap<(usize, std::cmp::Reverse<NodeId>)> = topo
        .nodes()
        .filter(|&u| u != root)
        .map(|u| (gain_of(&covered, u), std::cmp::Reverse(u)))
        .collect();
    let mut uncovered = n - covered.len();
    while uncovered > 0 {
        let mut best = None;
        while let Some((stale, std::cmp::Reverse(u))) = heap.pop() {
            let fresh = gain_of(&covered, u);
            debug_assert!(fresh <= stale, "coverage gains are monotone");
            if fresh == stale {
                best = Some((fresh, u));
                break;
            }
            heap.push((fresh, std::cmp::Reverse(u)));
        }
        let Some((gain, u)) = best else { break };
        if gain == 0 {
            break; // disconnected remainder; caller's problem
        }
        cds.insert(u.idx());
        if covered.insert(u.idx()) {
            uncovered -= 1;
        }
        for &v in topo.neighbors(u) {
            if covered.insert(v.idx()) {
                uncovered -= 1;
            }
        }
    }

    // Phase 2: connect every CDS member to the root via BFS parents.
    let hops = metrics::bfs_hops(topo, root);
    for u in cds.clone().iter() {
        let mut cur = NodeId(u as u32);
        while hops[cur.idx()] != 0 && hops[cur.idx()] != metrics::UNREACHABLE {
            // Walk to any neighbor strictly closer to the root.
            let parent = topo
                .neighbors(cur)
                .iter()
                .copied()
                .find(|&v| hops[v.idx()] + 1 == hops[cur.idx()])
                .expect("BFS parent exists");
            cds.insert(parent.idx());
            cur = parent;
        }
    }
    cds
}

/// Layered broadcast restricted to CDS relays (synchronous).
///
/// # Panics
///
/// Panics when the topology is disconnected.
pub fn schedule_cds_layered(topo: &Topology, source: NodeId) -> Schedule {
    let n = topo.len();
    let hops = metrics::bfs_hops(topo, source);
    assert!(
        hops.iter().all(|&h| h != metrics::UNREACHABLE),
        "broadcast cannot complete: disconnected topology"
    );
    let cds = greedy_connected_dominating_set(topo, source);
    let depth = hops.iter().copied().max().unwrap_or(0);

    let mut informed = NodeSet::new(n);
    informed.insert(source.idx());
    let mut entries: Vec<ScheduleEntry> = Vec::new();
    let mut t = 1;

    // Per-layer CDS member lists (ascending by id, like the 0..n scan this
    // replaces) so each round only touches the layer's relays.
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); depth as usize + 1];
    for u in cds.iter() {
        members[hops[u] as usize].push(NodeId(u as u32));
    }

    for layer in 0..=depth {
        loop {
            // CDS members of this layer with uninformed neighbors.
            let candidates: Vec<NodeId> = members[layer as usize]
                .iter()
                .copied()
                .filter(|&u| {
                    informed.contains(u.idx())
                        && topo
                            .neighbors(u)
                            .iter()
                            .any(|&w| !informed.contains(w.idx()))
                })
                .collect();
            if candidates.is_empty() {
                break;
            }
            let classes = greedy_coloring_of_candidates(topo, &informed, &candidates);
            let mut senders = classes[0].clone();
            for &u in &senders {
                for &w in topo.neighbors(u) {
                    informed.insert(w.idx());
                }
            }
            senders.sort_unstable();
            entries.push(ScheduleEntry::new(t, senders));
            t += 1;
        }
    }

    Schedule {
        source,
        start: 1,
        entries,
        repeats: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_dutycycle::AlwaysAwake;
    use wsn_topology::{deploy, fixtures};

    #[test]
    fn cds_dominates_and_contains_root() {
        for seed in 0..3u64 {
            let (topo, src) = deploy::SyntheticDeployment::paper(100).sample(seed);
            let cds = greedy_connected_dominating_set(&topo, src);
            assert!(cds.contains(src.idx()));
            // Domination: every node is in the CDS or adjacent to a member.
            for u in topo.nodes() {
                assert!(
                    cds.contains(u.idx()) || topo.neighbor_set(u).intersects(&cds),
                    "node {u} undominated"
                );
            }
        }
    }

    #[test]
    fn cds_is_connected() {
        let (topo, src) = deploy::SyntheticDeployment::paper(120).sample(7);
        let cds = greedy_connected_dominating_set(&topo, src);
        // BFS within the CDS from the source must reach every member.
        let members: Vec<usize> = cds.to_vec();
        let mut seen = NodeSet::new(topo.len());
        seen.insert(src.idx());
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for &v in topo.neighbors(u) {
                if cds.contains(v.idx()) && seen.insert(v.idx()) {
                    queue.push_back(v);
                }
            }
        }
        for m in members {
            assert!(seen.contains(m), "CDS member {m} unreachable inside CDS");
        }
    }

    #[test]
    fn cds_schedule_verifies_and_covers() {
        let f = fixtures::fig1();
        let s = schedule_cds_layered(&f.topo, f.source);
        s.verify(&f.topo, &AlwaysAwake).unwrap();
    }

    #[test]
    fn cds_schedule_on_random_instances() {
        for seed in 0..3u64 {
            let (topo, src) = deploy::SyntheticDeployment::paper(80).sample(seed);
            let s = schedule_cds_layered(&topo, src);
            s.verify(&topo, &AlwaysAwake).unwrap();
        }
    }

    #[test]
    fn cds_reduces_transmissions_vs_plain_layered() {
        let (topo, src) = deploy::SyntheticDeployment::paper(200).sample(3);
        let plain = crate::schedule_26_approx(&topo, src);
        let cds = schedule_cds_layered(&topo, src);
        assert!(
            cds.transmission_count() <= plain.transmission_count(),
            "CDS restriction should not transmit more: {} vs {}",
            cds.transmission_count(),
            plain.transmission_count()
        );
    }
}
