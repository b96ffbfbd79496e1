//! Conflict-aware color schemes (§IV-A of the paper).
//!
//! A *color* is a set of informed senders that can transmit concurrently
//! without any uninformed node hearing two of them. Eq. (1) defines a valid
//! coloring of the candidate relays; the *extended greedy scheme*
//! (Algorithm 1 / Eq. 2) orders candidates by how many uninformed neighbors
//! their relay would cover and assigns the first non-conflicting color —
//! crucially, it is re-run against the *current* informed set after every
//! advance, which is what lets the paper pipeline lagging relays with fresh
//! ones instead of synchronizing per BFS layer.
//!
//! * [`eligible_senders`] / [`eligible_awake_senders`] — Algorithm 1 step 1
//!   (round-based and duty-cycle candidate rules);
//! * [`greedy_coloring`] — Algorithm 1 steps 2–5;
//! * [`validate_coloring`] — the four Eq. (1) constraints, used by tests
//!   and the schedule verifier;
//! * [`maximal_conflict_free_sets`] — every inclusion-maximal conflict-free
//!   sender set (Bron–Kerbosch over the conflict-graph complement), the
//!   branch set of the OPT search ("any possible color", Eq. 5/6),
//!   optionally only those covering a [`HitMasks`] target;
//! * [`BroadcastState`] — the reusable broadcast-state substrate every
//!   scheduler threads through: informed/uninformed scratch sets, the
//!   candidate list, and a delta-maintained conflict graph shared between
//!   the greedy coloring and the enumeration.

mod channels;
mod enumerate;
mod greedy;
mod substrate;
mod validity;

pub use channels::{greedy_pack_order, pack_channels, pack_channels_ordered};
pub use enumerate::{extend_to_maximal, maximal_conflict_free_sets, EnumerationOutcome, HitMasks};
pub use greedy::{greedy_classes_on_graph, greedy_coloring, greedy_coloring_of_candidates};
pub use substrate::BroadcastState;
pub use validity::{validate_coloring, ColoringViolation};

use wsn_bitset::NodeSet;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_topology::{NodeId, Topology};

/// Candidate relays for the round-based system (Algorithm 1 step 1):
/// informed nodes with at least one uninformed neighbor.
///
/// Returned in ascending node-id order (the deterministic base order that
/// greedy tie-breaking relies on).
pub fn eligible_senders(topo: &Topology, informed: &NodeSet) -> Vec<NodeId> {
    let uninformed = informed.complement();
    informed
        .iter()
        .map(|u| NodeId(u as u32))
        .filter(|&u| topo.neighbor_set(u).intersects(&uninformed))
        .collect()
}

/// Candidate relays for the duty-cycle system (Eq. 3): additionally the
/// sender must be scheduled to send in `slot` (`t ∈ T(u)`).
pub fn eligible_awake_senders<S: WakeSchedule>(
    topo: &Topology,
    informed: &NodeSet,
    schedule: &S,
    slot: Slot,
) -> Vec<NodeId> {
    let uninformed = informed.complement();
    informed
        .iter()
        .map(|u| NodeId(u as u32))
        .filter(|&u| {
            schedule.can_send(u.idx(), slot) && topo.neighbor_set(u).intersects(&uninformed)
        })
        .collect()
}

/// Number of uninformed nodes a relay from `u` would cover
/// (`|N(u) ∩ W̄|`, the greedy sort key of Eq. 2).
#[inline]
pub fn receiver_count(topo: &Topology, u: NodeId, uninformed: &NodeSet) -> usize {
    topo.neighbor_set(u).intersection_len(uninformed)
}

/// The uninformed nodes a relay from `u` covers (`N(u) ∩ W̄`).
#[inline]
pub fn receivers(topo: &Topology, u: NodeId, uninformed: &NodeSet) -> NodeSet {
    topo.neighbor_set(u).intersection(uninformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_dutycycle::ExplicitSchedule;
    use wsn_geom::Point;

    fn path4() -> Topology {
        Topology::unit_disk((0..4).map(|i| Point::new(i as f64, 0.0)).collect(), 1.0)
    }

    #[test]
    fn eligible_requires_informed_with_uninformed_neighbor() {
        let t = path4();
        // W = {0, 1}: node 0's neighbors are all informed; node 1 can reach 2.
        let w = NodeSet::from_indices(4, [0, 1]);
        assert_eq!(eligible_senders(&t, &w), vec![NodeId(1)]);
        // W = N: nobody is eligible.
        assert!(eligible_senders(&t, &NodeSet::full(4)).is_empty());
        // W = {0}: only the source.
        let w0 = NodeSet::from_indices(4, [0]);
        assert_eq!(eligible_senders(&t, &w0), vec![NodeId(0)]);
    }

    #[test]
    fn awake_filter_applies() {
        let t = path4();
        let w = NodeSet::from_indices(4, [0, 1]);
        // Node 1 sleeps in slot 0, wakes in slot 1.
        let sched = ExplicitSchedule::new(vec![vec![0], vec![1], vec![0], vec![0]], 4);
        assert!(eligible_awake_senders(&t, &w, &sched, 0).is_empty());
        assert_eq!(eligible_awake_senders(&t, &w, &sched, 1), vec![NodeId(1)]);
    }

    #[test]
    fn receiver_helpers() {
        let t = path4();
        let w = NodeSet::from_indices(4, [0, 1]);
        let wbar = w.complement();
        assert_eq!(receiver_count(&t, NodeId(1), &wbar), 1);
        assert_eq!(receivers(&t, NodeId(1), &wbar).to_vec(), vec![2]);
        assert_eq!(receiver_count(&t, NodeId(0), &wbar), 0);
    }
}
