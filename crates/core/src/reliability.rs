//! ε-reliability: what a schedule's repeat slots buy under lossy links.
//!
//! The lossless verifier treats every in-range, collision-free reception as
//! certain. Under a [`LinkQuality`] layer each attempt on edge `(u, w)`
//! succeeds only with probability `q_uw`, so a node served once by a single
//! relay is stranded with probability `1 − q_uw` — and every descendant of a
//! stranded relay is stranded with it. The repeat counts on
//! [`Schedule::repeats`] are the defense: entry `i` re-fires its sender set
//! in each slot of `[slot, slot + repeats[i])` (skipping slots where a
//! sender's duty cycle is off), multiplying each delivery's success odds.
//!
//! # DESIGN: repeat-slot semantics and the product-form bound
//!
//! [`Schedule::delivery_profile`] is the verifying pass itself: the replay
//! behind [`Schedule::verify_with_model`] (per-channel-group
//! [`ConflictModel::resolve_receptions`] resolution, informed-set growth
//! after each entry) builds the [`ServingTree`] as it goes and propagates
//! a *delivery lower bound* along it:
//!
//! ```text
//! p_source = 1
//! p_w      = p_u · (1 − (1 − q_uw)^{r_u})
//! ```
//!
//! where `u` is the sender credited with serving `w` and `r_u` is the
//! number of occupied slots in `u`'s entry range where `u` is awake (≥ 1:
//! the first slot is verified awake). This is a lower bound on the true
//! delivery probability for two independent reasons: a node may be in range
//! of *several* non-conflicting senders (under capture models more than one
//! adjacent group member can deliver; we credit only the best single
//! sender), and a node that misses its scheduled serving may still overhear
//! a later repeat. Both slack sources only help, so a schedule whose bound
//! clears `1 − ε` truly delivers to every node with probability ≥ `1 − ε`.
//!
//! # Why this composes with channel assignments
//!
//! Reliability is accounted *per delivery edge*, after the conflict model
//! has resolved which receptions are clean. A multi-channel entry resolves
//! each channel group independently (exactly as verification does), so a
//! `(sender, receiver)` delivery credited here was collision-free *on its
//! channel* — loss and interference never mix. Repeats re-fire the whole
//! entry, channels included, so the repeat slots inherit the entry's
//! conflict-freedom verbatim: if the entry verifies once it verifies in
//! every slot of its range where the senders are awake. That is why
//! [`Schedule::verify_reliability`] is model-generic — it runs the full
//! conflict-model verification first and only then asks whether the
//! probability mass reaches `1 − ε`.

use crate::schedule::{Schedule, ScheduleError};
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_phy::ConflictModel;
use wsn_topology::{LinkQuality, NodeId, Topology};

/// Outcome of a successful [`Schedule::verify_reliability`] check: the
/// delivery bound per node plus aggregate reliability metrics.
#[derive(Clone, Debug)]
pub struct ReliabilityReport {
    /// Product-form delivery lower bound per node (1.0 for the source).
    pub per_node: Vec<f64>,
    /// The weakest node's delivery bound — the quantity compared to `1−ε`.
    pub min_delivery: f64,
    /// Mean delivery bound across all nodes.
    pub mean_delivery: f64,
    /// Latency including repeat slots (`completion − start + 1`; 0 for an
    /// empty schedule).
    pub expanded_latency: Slot,
    /// Total occupied slots ([`Schedule::slot_budget`]).
    pub slot_budget: u64,
}

impl ReliabilityReport {
    /// The report on `schedule` given its delivery profile `per_node`
    /// ([`Schedule::delivery_profile`]): the weakest and mean bound, the
    /// expanded latency and the slot budget.
    pub fn new(schedule: &Schedule, per_node: Vec<f64>) -> ReliabilityReport {
        let mut min_delivery = 1.0f64;
        let mut sum = 0.0f64;
        for &p in &per_node {
            sum += p;
            min_delivery = min_delivery.min(p);
        }
        ReliabilityReport {
            min_delivery,
            mean_delivery: sum / per_node.len().max(1) as f64,
            per_node,
            expanded_latency: schedule.latency(),
            slot_budget: schedule.slot_budget(),
        }
    }

    /// Whether every node's delivery bound reaches `1 − ε`. Up to f64
    /// rounding: the planner targets exactly `1 − ε`, so a product that
    /// lands within one ulp-ish of the target passes.
    pub fn meets(&self, epsilon: f64) -> bool {
        self.min_delivery + 1e-12 >= 1.0 - epsilon
    }
}

/// A reliability-verification failure: either the schedule is not valid
/// under the conflict model at all, or it is valid but some node's delivery
/// bound misses the `1 − ε` target.
#[derive(Clone, Debug, PartialEq)]
pub enum ReliabilityError {
    /// The underlying schedule failed conflict-model verification.
    Invalid(ScheduleError),
    /// A node's cumulative delivery probability bound falls short of `1−ε`.
    UnderReliable {
        /// The weakest node.
        node: NodeId,
        /// Its delivery bound.
        delivery: f64,
    },
}

impl From<ScheduleError> for ReliabilityError {
    fn from(e: ScheduleError) -> Self {
        ReliabilityError::Invalid(e)
    }
}

impl std::fmt::Display for ReliabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReliabilityError::Invalid(e) => write!(f, "schedule invalid: {e}"),
            ReliabilityError::UnderReliable { node, delivery } => {
                write!(
                    f,
                    "node {node} delivery bound {delivery:.6} misses the reliability target"
                )
            }
        }
    }
}

impl std::error::Error for ReliabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReliabilityError::Invalid(e) => Some(e),
            ReliabilityError::UnderReliable { .. } => None,
        }
    }
}

/// The serving tree a schedule induces under a conflict model and a link
/// layer: for every node, the sender credited with informing it and the
/// product-form delivery bound that credit gives (see the module docs).
///
/// A node is credited to the adjacent sender of its serving channel group
/// with the highest bound, and on a tie to the lower node id. When several
/// groups of one entry serve it, the earlier group keeps it on a tie. A
/// node whose best bound is 0 gets no parent.
#[derive(Clone, Debug)]
pub struct ServingTree {
    /// Delivery lower bound per node: 1 for the source, 0 for a node no
    /// credited delivery reaches.
    pub p: Vec<f64>,
    /// The sender credited with informing each node (`None` for the source
    /// and unparented nodes).
    pub parent: Vec<Option<NodeId>>,
    /// The index of the entry that informs each node (`None` where
    /// `parent` is).
    pub entry: Vec<Option<usize>>,
    /// Delivery probability of the link from the parent (1 without one).
    pub q_in: Vec<f64>,
    /// Hops from the source along parents (0 without a parent).
    pub depth: Vec<u32>,
}

impl Schedule {
    /// Verifies the schedule under `model`, as
    /// [`Schedule::verify_with_model`] does, and builds its
    /// [`ServingTree`] under `quality` in the same pass. Attempts per
    /// delivery count the serving sender's awake slots in its entry's
    /// range (at least 1: the first slot is verified awake).
    pub fn serving_tree<S: WakeSchedule, M: ConflictModel>(
        &self,
        topo: &Topology,
        wake: &S,
        model: &M,
        quality: &LinkQuality,
    ) -> Result<ServingTree, ScheduleError> {
        let n = topo.len();
        let mut tree = ServingTree {
            p: vec![0.0; n],
            parent: vec![None; n],
            entry: vec![None; n],
            q_in: vec![1.0; n],
            depth: vec![0; n],
        };
        tree.p[self.source.idx()] = 1.0;
        let mut attempts: Vec<i32> = Vec::new();
        self.replay(topo, wake, model, None, Err, |ei, groups| {
            let entry = &self.entries[ei];
            let end = self.entry_end(ei);
            attempts.clear();
            attempts.extend(entry.senders.iter().map(|&u| {
                let awake = (entry.slot..=end).filter(|&t| wake.can_send(u.idx(), t));
                awake.count().max(1) as i32
            }));
            for group in groups {
                for w in group.received.iter() {
                    let node = NodeId(w as u32);
                    let mut best: Option<(f64, NodeId, f64)> = None;
                    for (&u, &r) in entry.senders.iter().zip(&attempts) {
                        if !group.senders.contains(u.idx()) || !topo.adjacent(u, node) {
                            continue;
                        }
                        let q = quality.delivery(topo, u, node);
                        let bound = tree.p[u.idx()] * (1.0 - (1.0 - q).powi(r));
                        if best.is_none_or(|(b, s, _)| bound > b || (bound == b && u < s)) {
                            best = Some((bound, u, q));
                        }
                    }
                    if let Some((bound, u, q)) = best.filter(|&(b, _, _)| b > tree.p[w]) {
                        tree.p[w] = bound;
                        tree.parent[w] = Some(u);
                        tree.entry[w] = Some(ei);
                        tree.q_in[w] = q;
                        tree.depth[w] = tree.depth[u.idx()] + 1;
                    }
                }
            }
        })?;
        Ok(tree)
    }

    /// The product-form delivery lower bound per node (see the module docs)
    /// under `quality`: the `p` of [`Schedule::serving_tree`], so the
    /// schedule is verified by the same pass.
    pub fn delivery_profile<S: WakeSchedule, M: ConflictModel>(
        &self,
        topo: &Topology,
        wake: &S,
        model: &M,
        quality: &LinkQuality,
    ) -> Result<Vec<f64>, ScheduleError> {
        self.serving_tree(topo, wake, model, quality)
            .map(|tree| tree.p)
    }

    /// Verifies the schedule under `model` **and** checks that every
    /// node's delivery bound reaches `1 − ε` under `quality`, returning
    /// the full [`ReliabilityReport`] on success.
    pub fn verify_reliability<S: WakeSchedule, M: ConflictModel>(
        &self,
        topo: &Topology,
        wake: &S,
        model: &M,
        quality: &LinkQuality,
        epsilon: f64,
    ) -> Result<ReliabilityReport, ReliabilityError> {
        let report =
            ReliabilityReport::new(self, self.delivery_profile(topo, wake, model, quality)?);
        if !report.meets(epsilon) {
            // The weakest node: the first one at the minimum bound.
            let weakest = report
                .per_node
                .iter()
                .position(|&p| p == report.min_delivery)
                .map_or(self.source, |i| NodeId(i as u32));
            return Err(ReliabilityError::UnderReliable {
                node: weakest,
                delivery: report.min_delivery,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_dutycycle::AlwaysAwake;
    use wsn_phy::ProtocolModel;
    use wsn_topology::fixtures;

    fn fig2a_schedule() -> (Schedule, wsn_topology::fixtures::Fixture) {
        let f = fixtures::fig2a();
        let s = Schedule {
            source: f.source,
            start: 1,
            entries: vec![
                crate::schedule::ScheduleEntry::new(1, vec![f.id("1")]),
                crate::schedule::ScheduleEntry::new(3, vec![f.id("2")]),
            ],
            repeats: vec![2, 2],
        };
        (s, f)
    }

    #[test]
    fn lossless_quality_gives_certain_delivery() {
        let (s, f) = fig2a_schedule();
        let q = LinkQuality::uniform(&f.topo, 1.0);
        let report = s
            .verify_reliability(&f.topo, &AlwaysAwake, &ProtocolModel, &q, 0.01)
            .unwrap();
        assert_eq!(report.min_delivery, 1.0);
        assert_eq!(report.slot_budget, 4);
        assert_eq!(report.expanded_latency, 4);
    }

    #[test]
    fn repeats_multiply_the_bound() {
        let (mut s, f) = fig2a_schedule();
        let q = LinkQuality::uniform(&f.topo, 0.9);
        // Two attempts per delivery: hop-1 bound 1−0.01 = 0.99, hop-2
        // bound 0.99², both ≥ 1−ε for ε = 0.02.
        let two = s
            .delivery_profile(&f.topo, &AlwaysAwake, &ProtocolModel, &q)
            .unwrap();
        let deepest = two.iter().cloned().fold(1.0, f64::min);
        assert!((deepest - 0.99f64.powi(2)).abs() < 1e-12, "{deepest}");
        s.verify_reliability(&f.topo, &AlwaysAwake, &ProtocolModel, &q, 0.02)
            .unwrap();

        // Without repeats the deepest bound is 0.9² = 0.81 — far short.
        s.repeats = Vec::new();
        s.entries[1].slot = 2;
        let err = s
            .verify_reliability(&f.topo, &AlwaysAwake, &ProtocolModel, &q, 0.02)
            .unwrap_err();
        assert!(matches!(err, ReliabilityError::UnderReliable { .. }));
    }

    #[test]
    fn overlapping_repeat_ranges_rejected() {
        let (mut s, f) = fig2a_schedule();
        // Entry 0 occupies [1, 2] — starting entry 1 at slot 2 overlaps.
        s.entries[1].slot = 2;
        let q = LinkQuality::uniform(&f.topo, 1.0);
        let err = s
            .verify_reliability(&f.topo, &AlwaysAwake, &ProtocolModel, &q, 0.01)
            .unwrap_err();
        assert!(matches!(
            err,
            ReliabilityError::Invalid(ScheduleError::NonMonotonicSlots { .. })
        ));
    }

    #[test]
    fn zero_repeat_rejected() {
        let (mut s, f) = fig2a_schedule();
        s.repeats = vec![2, 0];
        let q = LinkQuality::uniform(&f.topo, 1.0);
        assert_eq!(
            s.verify_reliability(&f.topo, &AlwaysAwake, &ProtocolModel, &q, 0.01)
                .unwrap_err(),
            ReliabilityError::Invalid(ScheduleError::RepeatArity)
        );
    }
}
