//! Pluggable conflict models: which concurrent transmissions collide.
//!
//! The paper's contribution is *conflict awareness*, and everything above
//! this layer — coloring, enumeration, the OPT/G-OPT searches, the sweeps —
//! is agnostic to *which* notion of conflict is in force. This crate makes
//! that notion a first-class, swappable value:
//!
//! * [`ProtocolModel`] — the paper's UDG protocol model: `u` and `v`
//!   conflict iff some uninformed node hears both (`N(u) ∩ N(v) ∩ W̄ ≠ ∅`).
//! * [`SinrModel`] — the physical-interference (SINR) model in its pairwise
//!   form, with configurable path-loss exponent `α`, decoding threshold
//!   `β`, ambient `noise`, transmit `power` and an interference `cutoff`
//!   radius, over a cached pairwise gain table.
//! * [`MultiChannel`] — a `K`-channel wrapper relaxing *any* inner model:
//!   transmissions on different channels never conflict, so one slot can
//!   launch up to `K` inner-conflict-free sender sets at once.
//!
//! [`PhyModel`] packages the concrete combinations behind one enum, and
//! [`PhyModelSpec`] is the cheap, topology-independent description the
//! sweep/bench layers put on their model axes and build per instance.
//!
//! # DESIGN: the witness-set invariant and incremental maintenance
//!
//! `wsn-interference::ConflictGraphBuilder` maintains conflict graphs by
//! delta as the uninformed set `W̄` churns. What makes that possible for
//! *every* model here is one structural invariant:
//!
//! > For each candidate pair `(u, v)` there is a fixed, `W̄`-independent
//! > *witness set* `wit(u, v)` such that
//! > `conflicts(u, v, W̄) ⇔ wit(u, v) ∩ W̄ ≠ ∅`
//! > ([`ConflictModel::collect_witnesses`]).
//!
//! For the protocol model the witnesses are the common neighbors. For the
//! pairwise SINR model they are the *vulnerable receivers*: nodes `w` in
//! range of `u` (or `v`) whose SINR from that sender drops below `β` once
//! the other transmits. Vulnerability is decided by the interference sum
//! `noise + power·g(interferer, w)` against `β`, and the gains `g` depend
//! only on geometry — so the sum is evaluated **once per pair**, into the
//! cached witness set, instead of being re-summed at every search state.
//! After that, adding or removing a single witness node `d` from `W̄`
//! touches only the candidate pairs whose witness sets can contain `d` —
//! `O(candidates adjacent to d)` pairs bounded by
//! [`ConflictModel::locality`] — and each retest is a membership scan of a
//! cached list, never a gain re-computation. The builder falls back to a
//! full re-sum (a from-scratch build) only when its cost model says the
//! delta is the expensive side: large `|ΔW̄|` relative to the candidate
//! count, heavy candidate churn (less than half the list kept), or a
//! topology/model fingerprint change (caches are keyed on
//! [`ConflictModel::fingerprint`], so graphs from different regimes never
//! mix).
//!
//! The pairwise SINR reading (each interferer tested alone against the
//! signal) is the standard graph-schedulable restriction of the physical
//! model — cf. Halldórsson & Mitra on local broadcasting under SINR — and
//! it is *internally consistent*: a sender set that is pairwise
//! conflict-free delivers to every intended receiver under
//! [`ConflictModel::resolve_receptions`] of the same model, which is what
//! lets `Schedule::verify_with_model` re-validate schedules independently
//! of the scheduler that produced them. With threshold-degenerate
//! parameters ([`SinrParams::degenerate`]: interference cutoff at the UDG
//! radius, `β` above the worst in-range signal-to-interference ratio,
//! `noise` calibrated so the reception range equals the radius) the SINR
//! witness sets collapse to exactly the common neighbors and the model
//! reproduces the protocol conflict graph edge for edge — the workspace
//! proptests pin that equivalence.
//!
//! Multi-channel scheduling (cf. Nguyen et al. on multi-channel WSN
//! aggregation) assumes a receiver can tune to whichever channel carries a
//! clean transmission; each channel's sender group must be conflict-free
//! under the inner model, which `verify_with_model` checks group by group
//! through `resolve_receptions`.

mod multichannel;
mod sinr;

pub use multichannel::{BaseModel, MultiChannel, PhyModel, PhyModelSpec};
pub use sinr::{GainTable, SinrModel, SinrParams};

use wsn_bitset::NodeSet;
use wsn_topology::{NodeId, Topology};

/// Where a pair's witnesses can live, bounding which candidate pairs a
/// churned node can affect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WitnessLocality {
    /// `wit(u, v) = N(u) ∩ N(v)` exactly — every common neighbor is a
    /// witness, so a node entering `W̄` *forces* a conflict on every
    /// candidate pair it neighbors twice, no test needed (the protocol
    /// model's shape).
    CommonNeighbors,
    /// `wit(u, v) ⊆ N(u) ∪ N(v)` and membership must be checked per node
    /// (the SINR shape: capture can save a receiver that hears both).
    EitherNeighborhood,
}

/// Outcome of one slot of concurrent transmissions under receiver-side
/// collision resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReceptionOutcome {
    /// Uninformed nodes that successfully received the message.
    pub received: NodeSet,
    /// Uninformed nodes in range of a sender that could not decode any
    /// transmission (collision / interference loss).
    pub collided: NodeSet,
}

/// A conflict model: the pairwise conflict predicate, its witness-set
/// factorization, and the matching receiver-side reception rule.
///
/// # Contract
///
/// * `conflicts(u, v, W̄)` is symmetric and irreflexive, and equals
///   `collect_witnesses(u, v) ∩ W̄ ≠ ∅` (the invariant the incremental
///   builder leans on; witness lists are ascending and `W̄`-independent).
/// * Witness sets respect [`ConflictModel::locality`].
/// * A sender set that is pairwise conflict-free w.r.t. `W̄` delivers to
///   every in-range member of `W̄` under `resolve_receptions`.
/// * `fingerprint` is stable for a given model value and differs between
///   models that can disagree on any of the above (caches key on it).
pub trait ConflictModel: Clone + Send + Sync {
    /// Stable identity of this model's semantics + parameters, mixed into
    /// cache keys so conflict graphs and memo entries never cross regimes.
    fn fingerprint(&self) -> u64;

    /// Number of orthogonal channels a slot may use (1 = single-channel).
    fn channels(&self) -> u32 {
        1
    }

    /// Where this model's witnesses live.
    fn locality(&self) -> WitnessLocality;

    /// `true` when concurrent transmissions by `u` and `v` would deny some
    /// member of `uninformed` the message.
    fn conflicts(&self, topo: &Topology, u: NodeId, v: NodeId, uninformed: &NodeSet) -> bool;

    /// Writes the ascending witness set `wit(u, v)` into `out` (cleared
    /// first).
    fn collect_witnesses(&self, topo: &Topology, u: NodeId, v: NodeId, out: &mut Vec<u32>);

    /// Resolves which members of `uninformed` receive when all of
    /// `senders` transmit concurrently **on one channel**.
    fn resolve_receptions(
        &self,
        topo: &Topology,
        senders: &NodeSet,
        uninformed: &NodeSet,
    ) -> ReceptionOutcome;

    /// `true` when pair retests should always go through cached witness
    /// sets regardless of universe size (models whose predicate is costlier
    /// than a membership scan, e.g. SINR with its gain arithmetic).
    fn prefers_witness_cache(&self) -> bool {
        false
    }

    /// An upper bound on the distance between two senders that can share a
    /// witness, or `None` when no sound geometric bound exists.
    ///
    /// When `Some(range)`, any candidate pair farther apart than `range`
    /// provably has an empty witness set and can never conflict — the
    /// license the conflict-graph builder uses to enumerate candidate
    /// pairs through a [`wsn_geom::CellGrid`] instead of all-pairs, which
    /// is what makes 10k–100k-candidate graph construction near-linear.
    ///
    /// Implementations must be conservative: returning `None` costs speed,
    /// returning a too-small range silently drops conflict edges.
    fn witness_range(&self, _topo: &Topology) -> Option<f64> {
        None
    }
}

/// The paper's protocol (UDG) interference model.
///
/// Conflict: `N(u) ∩ N(v) ∩ W̄ ≠ ∅` (Eq. 1, constraint 3). Reception: an
/// uninformed node receives iff *exactly one* of its neighbors transmits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolModel;

/// Nonzero fingerprint of the (parameterless) protocol model.
const PROTOCOL_FINGERPRINT: u64 = 0x70726f_746f636f; // "proto co"

impl ConflictModel for ProtocolModel {
    #[inline]
    fn fingerprint(&self) -> u64 {
        PROTOCOL_FINGERPRINT
    }

    #[inline]
    fn locality(&self) -> WitnessLocality {
        WitnessLocality::CommonNeighbors
    }

    #[inline]
    fn conflicts(&self, topo: &Topology, u: NodeId, v: NodeId, uninformed: &NodeSet) -> bool {
        // Two equivalent evaluations: a word-parallel triple intersection
        // (O(n/64), unbeatable on the paper-scale universes) and a sorted
        // merge of the two neighbor lists (O(deg u + deg v), the winner on
        // the 10k–100k-node universes where a bitset pass would touch
        // thousands of words per pair test).
        let (du, dv) = (topo.degree(u), topo.degree(v));
        if topo.len() > 64 * (du + dv) {
            let mut a = topo.neighbors(u).iter();
            let mut b = topo.neighbors(v).iter();
            let (mut x, mut y) = (a.next(), b.next());
            while let (Some(&i), Some(&j)) = (x, y) {
                match i.cmp(&j) {
                    std::cmp::Ordering::Less => x = a.next(),
                    std::cmp::Ordering::Greater => y = b.next(),
                    std::cmp::Ordering::Equal => {
                        if uninformed.contains(i.idx()) {
                            return true;
                        }
                        x = a.next();
                        y = b.next();
                    }
                }
            }
            false
        } else {
            topo.neighbor_set(u)
                .triple_intersects(topo.neighbor_set(v), uninformed)
        }
    }

    fn collect_witnesses(&self, topo: &Topology, u: NodeId, v: NodeId, out: &mut Vec<u32>) {
        out.clear();
        let (du, dv) = (topo.degree(u), topo.degree(v));
        if topo.len() > 64 * (du + dv) {
            // Sorted-merge common neighbors — same degree-local trade-off
            // as `conflicts` above; output stays ascending.
            let mut a = topo.neighbors(u).iter();
            let mut b = topo.neighbors(v).iter();
            let (mut x, mut y) = (a.next(), b.next());
            while let (Some(&i), Some(&j)) = (x, y) {
                match i.cmp(&j) {
                    std::cmp::Ordering::Less => x = a.next(),
                    std::cmp::Ordering::Greater => y = b.next(),
                    std::cmp::Ordering::Equal => {
                        out.push(i.0);
                        x = a.next();
                        y = b.next();
                    }
                }
            }
            return;
        }
        let nu = topo.neighbor_set(u);
        let nv = topo.neighbor_set(v);
        if nu.intersects(nv) {
            out.extend(nu.intersection(nv).iter().map(|w| w as u32));
        }
    }

    fn resolve_receptions(
        &self,
        topo: &Topology,
        senders: &NodeSet,
        uninformed: &NodeSet,
    ) -> ReceptionOutcome {
        let n = topo.len();
        let mut received = NodeSet::new(n);
        let mut collided = NodeSet::new(n);
        // One sweep over the senders' neighbor lists, O(Σ deg(sender)) plus
        // one word pass, instead of O(|W̄| · n/64): a first hearing marks
        // `received`, a second marks `collided`, and exactly-once hearers
        // are the difference. No per-node counter is zeroed, which matters
        // when 100k-node schedules are verified slot by slot.
        for s in senders.iter() {
            for &w in topo.neighbors(NodeId(s as u32)) {
                if uninformed.contains(w.idx()) {
                    if received.contains(w.idx()) {
                        collided.insert(w.idx());
                    } else {
                        received.insert(w.idx());
                    }
                }
            }
        }
        received.difference_with(&collided);
        ReceptionOutcome { received, collided }
    }

    #[inline]
    fn witness_range(&self, topo: &Topology) -> Option<f64> {
        // A protocol witness is a common neighbor, so conflicting senders
        // sit within two hops: 2 × the UDG radius.
        Some(2.0 * topo.radius())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::Point;

    fn diamond() -> Topology {
        Topology::unit_disk(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.9, 0.7),
                Point::new(0.9, -0.7),
                Point::new(1.8, 0.0),
                Point::new(1.4, 1.5),
            ],
            1.2,
        )
    }

    #[test]
    fn protocol_witnesses_are_common_neighbors() {
        let t = diamond();
        let m = ProtocolModel;
        let mut wit = Vec::new();
        m.collect_witnesses(&t, NodeId(1), NodeId(2), &mut wit);
        // 1 and 2 share neighbors 0 and 3.
        assert_eq!(wit, vec![0, 3]);
        // The invariant: conflict ⇔ a witness is uninformed.
        let mut unf = NodeSet::full(5);
        for i in [0usize, 1, 2] {
            unf.remove(i);
        }
        assert!(m.conflicts(&t, NodeId(1), NodeId(2), &unf));
        unf.remove(3);
        assert!(!m.conflicts(&t, NodeId(1), NodeId(2), &unf));
    }

    #[test]
    fn protocol_reception_is_exactly_one() {
        let t = diamond();
        let m = ProtocolModel;
        let senders = NodeSet::from_indices(5, [1, 2]);
        let unf = NodeSet::from_indices(5, [3, 4]);
        let out = m.resolve_receptions(&t, &senders, &unf);
        assert_eq!(out.collided.to_vec(), vec![3]);
        assert_eq!(out.received.to_vec(), vec![4]);
    }

    #[test]
    fn degree_local_paths_match_bitset_paths() {
        // A long sparse line puts the adaptive predicate on the sorted-merge
        // path (n ≫ 64·(deg u + deg v)); the bitset evaluation is the
        // ground truth it must reproduce, witnesses and booleans alike.
        let n = 2_000;
        let t = Topology::unit_disk(
            (0..n).map(|i| Point::new(i as f64 * 0.8, 0.0)).collect(),
            1.0,
        );
        let m = ProtocolModel;
        let unf = NodeSet::from_indices(n, (0..n).filter(|i| i % 3 != 0));
        let mut wit = Vec::new();
        for u in 0..40u32 {
            for v in (u + 1)..40 {
                let (nu, nv) = (t.neighbor_set(NodeId(u)), t.neighbor_set(NodeId(v)));
                assert_eq!(
                    m.conflicts(&t, NodeId(u), NodeId(v), &unf),
                    nu.triple_intersects(nv, &unf),
                    "pair ({u},{v})"
                );
                m.collect_witnesses(&t, NodeId(u), NodeId(v), &mut wit);
                let want: Vec<u32> = nu.intersection(nv).iter().map(|w| w as u32).collect();
                assert_eq!(wit, want, "pair ({u},{v})");
            }
        }
        // The reception sweep agrees with a per-receiver scan.
        let senders = NodeSet::from_indices(n, (0..n).filter(|i| i % 3 == 0));
        let out = m.resolve_receptions(&t, &senders, &unf);
        for w in 0..n {
            let heard = t.neighbor_set(NodeId(w as u32)).intersection_len(&senders);
            let expect_recv = unf.contains(w) && heard == 1;
            let expect_coll = unf.contains(w) && heard >= 2;
            assert_eq!(out.received.contains(w), expect_recv, "node {w}");
            assert_eq!(out.collided.contains(w), expect_coll, "node {w}");
        }
    }

    #[test]
    fn witness_ranges_are_sound() {
        let t = diamond();
        // Protocol: two hops.
        assert_eq!(ProtocolModel.witness_range(&t), Some(2.0 * t.radius()));
        // Calibrated SINR decodes every in-range link against noise alone,
        // so witnesses need interference: radius + cutoff.
        let sinr = SinrModel::new(SinrParams::calibrated(t.radius(), 3.0, 1.5), &t);
        assert_eq!(sinr.witness_range(&t), Some(3.0 * t.radius()));
        // A noise floor that can break in-range links alone admits
        // witnesses at any distance — no sound bound.
        let mut params = SinrParams::calibrated(t.radius(), 3.0, 1.5);
        params.noise *= 10.0;
        let noisy = SinrModel::new(params, &t);
        assert_eq!(noisy.witness_range(&t), None);
        // Multi-channel delegates to the inner model.
        assert_eq!(
            MultiChannel::new(ProtocolModel, 4).witness_range(&t),
            Some(2.0 * t.radius())
        );
    }

    #[test]
    fn fingerprints_distinguish_models() {
        let t = diamond();
        let proto = ProtocolModel;
        let sinr = SinrModel::new(SinrParams::calibrated(t.radius(), 3.0, 1.5), &t);
        let multi = MultiChannel::new(ProtocolModel, 4);
        assert_ne!(proto.fingerprint(), 0);
        assert_ne!(proto.fingerprint(), sinr.fingerprint());
        assert_ne!(proto.fingerprint(), multi.fingerprint());
        assert_ne!(
            MultiChannel::new(ProtocolModel, 2).fingerprint(),
            multi.fingerprint()
        );
    }
}
