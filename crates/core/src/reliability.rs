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
//! [`Schedule::delivery_profile`] replays the schedule exactly as
//! [`Schedule::verify_with_model`] does — same per-channel-group
//! [`ConflictModel::resolve_receptions`] resolution, same informed-set
//! growth — and propagates a *delivery lower bound* along the serving tree
//! the replay induces:
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
use wsn_bitset::NodeSet;
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

impl Schedule {
    /// The product-form delivery lower bound per node (see the module docs)
    /// under `quality`, replayed with `model`'s reception rule.
    ///
    /// Verifies the schedule first ([`Schedule::verify_with_model`]) — the
    /// profile is only meaningful for a schedule that executes cleanly.
    pub fn delivery_profile<S: WakeSchedule, M: ConflictModel>(
        &self,
        topo: &Topology,
        wake: &S,
        model: &M,
        quality: &LinkQuality,
    ) -> Result<Vec<f64>, ScheduleError> {
        self.verify_with_model(topo, wake, model)?;
        let n = topo.len();
        let mut p = vec![0.0f64; n];
        p[self.source.idx()] = 1.0;
        let mut informed = NodeSet::new(n);
        informed.insert(self.source.idx());

        for (ei, entry) in self.entries.iter().enumerate() {
            // Awake occupied slots per sender: how many times the sender
            // actually re-fires across the entry's range. The first slot is
            // awake by verification, so every count is ≥ 1.
            let end = self.entry_end(ei);
            let attempts: Vec<u32> = entry
                .senders
                .iter()
                .map(|&u| {
                    let mut r = 0u32;
                    let mut t = entry.slot;
                    while t <= end {
                        if wake.can_send(u.idx(), t) {
                            r += 1;
                        }
                        t += 1;
                    }
                    r.max(1)
                })
                .collect();

            // Same per-channel-group resolution as verification; a
            // received node is credited to the adjacent group sender whose
            // contribution bound is largest (exactly one exists under the
            // protocol model; capture models may offer several and picking
            // one keeps the bound a lower bound).
            let uninformed = informed.complement();
            let mut groups: Vec<(u8, NodeSet)> = Vec::new();
            for (i, &u) in entry.senders.iter().enumerate() {
                let c = entry.channel_of(i);
                match groups.iter_mut().find(|(gc, _)| *gc == c) {
                    Some((_, set)) => {
                        set.insert(u.idx());
                    }
                    None => {
                        let mut set = NodeSet::new(n);
                        set.insert(u.idx());
                        groups.push((c, set));
                    }
                }
            }
            let mut newly: Vec<usize> = Vec::new();
            for (gc, senders) in &groups {
                let outcome = model.resolve_receptions(topo, senders, &uninformed);
                for w in outcome.received.iter() {
                    let mut best = 0.0f64;
                    for (i, &u) in entry.senders.iter().enumerate() {
                        if entry.channel_of(i) != *gc || !senders.contains(u.idx()) {
                            continue;
                        }
                        if !topo.adjacent(u, NodeId(w as u32)) {
                            continue;
                        }
                        let q = quality.delivery(topo, u, NodeId(w as u32));
                        let miss = (1.0 - q).powi(attempts[i] as i32);
                        let bound = p[u.idx()] * (1.0 - miss);
                        if bound > best {
                            best = bound;
                        }
                    }
                    if best > p[w] {
                        p[w] = best;
                    }
                    newly.push(w);
                }
            }
            for w in newly {
                informed.insert(w);
            }
        }
        Ok(p)
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
        let per_node = self.delivery_profile(topo, wake, model, quality)?;
        let target = 1.0 - epsilon;
        let mut min_delivery = 1.0f64;
        let mut min_node = self.source;
        let mut sum = 0.0f64;
        for (i, &pi) in per_node.iter().enumerate() {
            sum += pi;
            if pi < min_delivery {
                min_delivery = pi;
                min_node = NodeId(i as u32);
            }
        }
        // Strictness up to f64 rounding: the planner targets exactly 1−ε,
        // so a product that lands within one ulp-ish of the target passes.
        if min_delivery + 1e-12 < target {
            return Err(ReliabilityError::UnderReliable {
                node: min_node,
                delivery: min_delivery,
            });
        }
        Ok(ReliabilityReport {
            min_delivery,
            mean_delivery: sum / per_node.len().max(1) as f64,
            per_node,
            expanded_latency: self.latency(),
            slot_budget: self.slot_budget(),
        })
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
