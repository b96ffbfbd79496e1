//! Analytical bounds: Theorem 1 and the baselines' guarantees.
//!
//! Theorem 1 bounds the minimum-latency broadcast at `d + 2` rounds in the
//! round-based system and `2r(d + 2)` slots in the duty-cycle system, where
//! `d` is the source's eccentricity. Figures 3, 5 and 7 plot these curves
//! (`OPT-analysis`) against the approximation baselines' guarantees:
//! `26·d` for the synchronous 26-approximation of \[2\] and `17·k·d` for
//! the duty-cycle 17-approximation of \[12\], with `k` the maximum wait
//! between any pair of neighbors.
//!
//! It also holds the admissible lower bounds the exact searches prune with.
//! From a state `(W, t)` — informed set `W`, every member free to send from
//! slot `t` on — no schedule completes before:
//!
//! * [`remaining_hops_profile`]: the farthest uninformed node in hops. Each
//!   slot extends the informed set by at most one hop.
//! * [`FloodBound`]: the completion slot of a conflict-free flood under the
//!   same wake schedule. Every informed node sends at its first sending
//!   slot `wake.next_send(u, ready)`; a node reached in slot `s` is ready
//!   at `s + 1`. A Dijkstra over these send slots gives each node's
//!   earliest arrival, and the bound is the latest arrival `− t + 1`.
//!
//! The flood bound is sound because `next_send` is FIFO: it returns the
//! first sending slot at or after `from`, so it never decreases as `from`
//! grows. Take any schedule from `(W, t)` and a node
//! `v` it first informs in slot `s`, through sender `u`. By induction over
//! `s`, `u` became ready no earlier than in the flood. The sender is awake
//! in `s`, so `s ≥ next_send(u, ready)`, and by FIFO that is no earlier
//! than the slot the flood sends `u` in, which is when the flood reaches
//! `v` at the latest. Conflicts only remove senders, so no schedule
//! informs any node before the flood does. Under
//! [`wsn_dutycycle::AlwaysAwake`] the flood advances one hop per slot and
//! the two bounds coincide; under a duty cycle the flood also counts the
//! waits for wake-ups.

use wsn_bitset::NodeSet;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_topology::{metrics, NodeId, Topology};

/// Theorem 1, round-based system: `P(A) − t_s + 1 ≤ d + 2` rounds.
pub fn opt_bound_sync(eccentricity: u32) -> Slot {
    eccentricity as Slot + 2
}

/// Theorem 1, duty-cycle system: `P(A) − t_s + 1 ≤ 2r(d + 2)` slots.
pub fn opt_bound_duty(eccentricity: u32, rate: u32) -> Slot {
    2 * rate as Slot * (eccentricity as Slot + 2)
}

/// The 26-approximation guarantee of Chen et al. \[2\]: latency at most
/// `26·d` rounds.
pub fn bound_26_approx(eccentricity: u32) -> Slot {
    26 * eccentricity as Slot
}

/// The 17-approximation guarantee of Jiao et al. \[12\]: latency at most
/// `17·k·d` slots, `k` being the maximum wait slots required between any
/// pair of neighboring nodes.
pub fn bound_17_approx(eccentricity: u32, max_wait: Slot) -> Slot {
    17 * max_wait * eccentricity as Slot
}

/// Measures `k` for [`bound_17_approx`] on a concrete instance: the
/// maximum, over all directed neighbor pairs, of the worst-case CWT.
pub fn max_neighbor_wait<S: WakeSchedule>(topo: &Topology, wake: &S) -> Slot {
    let mut k = 1;
    for (u, v) in topo.csr().edges() {
        k = k.max(wake.max_cwt(u.idx(), v.idx()));
        k = k.max(wake.max_cwt(v.idx(), u.idx()));
    }
    k
}

/// Admissible lower bound on the remaining broadcast delay from informed
/// set `W`: the farthest uninformed node in hops. Each slot launches at
/// most one conflict-free advance, which extends the informed set by at
/// most one hop, so at least `h` further slots are needed to reach a node
/// `h` hops away. Also returns the per-node BFS hop distances from `W` the
/// bound was computed from.
///
/// The BFS is level-synchronous over the neighbour masks: the next level
/// is `∪ N(frontier) \ reached`, one word-parallel union per node, so each
/// node costs `n / 64` words instead of a walk over its adjacency list.
/// Unreached nodes keep [`metrics::UNREACHABLE`] (as in
/// [`metrics::bfs_hops_from_set`]) and then set the bound to it.
pub fn remaining_hops_profile(topo: &Topology, informed: &NodeSet) -> (Slot, Vec<u32>) {
    let n = topo.len();
    let mut dist = vec![metrics::UNREACHABLE; n];
    for u in informed.iter() {
        dist[u] = 0;
    }
    let mut reached = informed.clone();
    let mut frontier = informed.clone();
    let mut next = NodeSet::new(n);
    let mut far = 0;
    loop {
        next.clear();
        for u in frontier.iter() {
            next.union_with(topo.neighbor_set(NodeId(u as u32)));
        }
        next.difference_with(&reached);
        if next.is_empty() {
            break;
        }
        far += 1;
        for v in next.iter() {
            dist[v] = far;
        }
        reached.union_with(&next);
        std::mem::swap(&mut frontier, &mut next);
    }
    debug_assert!(
        reached.is_full(),
        "lower bound undefined on disconnected instances"
    );
    if !reached.is_full() {
        far = metrics::UNREACHABLE;
    }
    (far as Slot, dist)
}

/// The wake-aware flood bound (see the module doc), with the scratch it
/// reuses across calls so a search allocates nothing per state.
#[derive(Debug, Default)]
pub struct FloodBound {
    /// Bitset words of the nodes informed or already reached.
    reached: Vec<u64>,
    /// `buckets[k]` holds the nodes whose first send is in slot `t + k`.
    buckets: Vec<Vec<u32>>,
}

impl FloodBound {
    /// Empty scratch; it grows to the topology on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lower bound on the remaining delay from `(informed, t)`: the slots
    /// from `t` through the flood's last first-reception, inclusive — or
    /// `budget + 1` once the flood proves the remainder exceeds `budget`
    /// (pass `Slot::MAX` for the uncapped bound). `0` when every node is
    /// informed.
    ///
    /// Send slots are small offsets from `t`, so the Dijkstra runs on a
    /// bucket queue indexed by offset. Only informed nodes with an
    /// uninformed neighbor seed it, each node is queued at most once (FIFO
    /// `next_send` makes its first arrival its earliest), and a send
    /// informs its whole neighborhood in one word-parallel step.
    pub fn lower_bound<S: WakeSchedule>(
        &mut self,
        topo: &Topology,
        wake: &S,
        informed: &NodeSet,
        t: Slot,
        budget: Slot,
    ) -> Slot {
        let mut remaining = topo.len() - informed.len();
        if remaining == 0 {
            return 0;
        }
        let FloodBound { reached, buckets } = self;
        reached.clear();
        reached.extend_from_slice(informed.words());
        buckets.iter_mut().for_each(Vec::clear);
        // A send `budget` or more slots after `t` informs its receivers too
        // late to matter: the remainder already exceeds the budget.
        let queue = |buckets: &mut Vec<Vec<u32>>, u: usize, send: Slot| {
            let k = send - t;
            if k < budget {
                let k = k as usize;
                if k >= buckets.len() {
                    buckets.resize_with(k + 1, Vec::new);
                }
                buckets[k].push(u as u32);
            }
        };
        for u in informed.iter() {
            if !topo.neighbor_set(NodeId(u as u32)).is_subset(informed) {
                queue(buckets, u, wake.next_send(u, t));
            }
        }
        let mut k = 0;
        while k < buckets.len() {
            let mut i = 0;
            while i < buckets[k].len() {
                let u = NodeId(buckets[k][i]);
                i += 1;
                let words = topo.neighbor_set(u).words();
                for (wi, (&nbrs, seen)) in words.iter().zip(reached.iter_mut()).enumerate() {
                    let mut fresh = nbrs & !*seen;
                    *seen |= nbrs;
                    while fresh != 0 {
                        let v = wi * 64 + fresh.trailing_zeros() as usize;
                        fresh &= fresh - 1;
                        remaining -= 1;
                        if remaining == 0 {
                            return k as Slot + 1;
                        }
                        queue(buckets, v, wake.next_send(v, t + k as Slot + 1));
                    }
                }
            }
            k += 1;
        }
        // The unreached nodes hang off sends dropped past the budget (or
        // off nothing, on a disconnected topology).
        budget.saturating_add(1)
    }
}

/// Eccentricity of the source, the `d` every bound is phrased in.
///
/// # Panics
///
/// Panics when the topology is disconnected.
pub fn source_eccentricity(topo: &Topology, source: NodeId) -> u32 {
    metrics::eccentricity(topo, source).expect("bounds require a connected topology")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_dutycycle::{AlwaysAwake, ExplicitSchedule, WindowedRandom};
    use wsn_topology::{deploy, fixtures};

    #[test]
    fn theorem1_values() {
        assert_eq!(opt_bound_sync(3), 5);
        assert_eq!(opt_bound_duty(3, 10), 100);
        assert_eq!(opt_bound_duty(5, 50), 700);
        assert_eq!(bound_26_approx(4), 104);
        assert_eq!(bound_17_approx(4, 19), 1292);
    }

    #[test]
    fn fig1_respects_theorem1() {
        // Figure 1: d = 3, optimum P(A) = 3 < d + 2 = 5.
        let f = fixtures::fig1();
        let d = source_eccentricity(&f.topo, f.source);
        assert_eq!(d, 3);
        let out = crate::solve_gopt(
            &f.topo,
            f.source,
            &AlwaysAwake,
            &crate::SearchConfig::default(),
        );
        assert!(out.latency < opt_bound_sync(d));
    }

    #[test]
    fn lower_bound_is_admissible_on_fixtures() {
        // On Fig 2(a): from W = {source}, the farthest node is 2 hops away
        // and the optimum is exactly 2.
        let f = fixtures::fig2a();
        let w = NodeSet::from_indices(5, [f.source.idx()]);
        assert_eq!(remaining_hops_profile(&f.topo, &w).0, 2);
        let out = crate::solve_gopt(
            &f.topo,
            f.source,
            &AlwaysAwake,
            &crate::SearchConfig::default(),
        );
        assert!(out.latency >= 2);
    }

    #[test]
    fn lower_bound_zero_when_one_hop_remains_nowhere() {
        let f = fixtures::fig2a();
        assert_eq!(remaining_hops_profile(&f.topo, &NodeSet::full(5)).0, 0);
    }

    #[test]
    fn flood_bound_counts_wake_waits() {
        // Fig 2(e) under the Table IV wake schedule: the source sends at
        // slot 2, node "2" wakes at 4 and finishes the broadcast, so the
        // optimum spans slots 2..=4. The hop bound sees only 2 hops.
        let f = fixtures::fig2a();
        let wake = ExplicitSchedule::new(vec![vec![2], vec![4, 13], vec![4], vec![9], vec![9]], 20);
        let w = NodeSet::from_indices(5, [f.source.idx()]);
        let mut flood = FloodBound::new();
        assert_eq!(remaining_hops_profile(&f.topo, &w).0, 2);
        assert_eq!(flood.lower_bound(&f.topo, &wake, &w, 2, Slot::MAX), 3);
        // A budget the flood proves too small comes back as budget + 1.
        assert_eq!(flood.lower_bound(&f.topo, &wake, &w, 2, 1), 2);
        let out = crate::solve_opt(&f.topo, f.source, &wake, &crate::SearchConfig::default());
        assert_eq!(out.latency, 3);
    }

    #[test]
    fn max_neighbor_wait_sync_is_one() {
        let f = fixtures::fig2a();
        assert_eq!(max_neighbor_wait(&f.topo, &AlwaysAwake), 1);
    }

    #[test]
    fn max_neighbor_wait_duty_in_range() {
        let (topo, _) = deploy::SyntheticDeployment::paper(60).sample(2);
        let wake = WindowedRandom::new(topo.len(), 10, 5);
        let k = max_neighbor_wait(&topo, &wake);
        assert!((1..20).contains(&k), "k = {k} outside [1, 2r)");
    }
}
