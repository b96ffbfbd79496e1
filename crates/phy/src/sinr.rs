//! The pairwise SINR (physical interference) model.

use crate::{ConflictModel, ReceptionOutcome, WitnessLocality};
use std::sync::Arc;
use wsn_bitset::NodeSet;
use wsn_geom::CellGrid;
use wsn_topology::{NodeId, Topology};

/// SINR model parameters. All senders share one transmit `power`; the gain
/// of a link of length `d` is `d^−α`; a transmission decodes at a receiver
/// when `power·g_signal ≥ β · (noise + power·g_interference)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SinrParams {
    /// Transmit power (identical for all nodes).
    pub power: f64,
    /// Path-loss exponent `α` (free space 2, urban 3–5).
    pub alpha: f64,
    /// Decoding SINR threshold `β`.
    pub beta: f64,
    /// Ambient noise floor.
    pub noise: f64,
    /// Interference range: gains of links longer than this are treated as
    /// zero (the bounded-interference truncation every grph-schedulable
    /// SINR treatment makes; must be ≥ the topology radius).
    pub cutoff: f64,
}

impl SinrParams {
    /// Parameters calibrated so the interference-free reception range is
    /// exactly `radius` (`power·radius^−α = β·noise`): every topology link
    /// decodes when no other sender interferes, so schedules can always
    /// complete. Interference is counted out to `2·radius`.
    pub fn calibrated(radius: f64, alpha: f64, beta: f64) -> SinrParams {
        assert!(radius > 0.0 && alpha > 0.0 && beta > 0.0);
        let power = 1.0;
        SinrParams {
            power,
            alpha,
            beta,
            noise: power * radius.powf(-alpha) / beta,
            cutoff: 2.0 * radius,
        }
    }

    /// Threshold-degenerate parameters reproducing the protocol model on
    /// `topo` *edge for edge*: the interference cutoff sits at the UDG
    /// radius (out-of-range senders do not interfere), `β` exceeds the
    /// worst in-range signal-to-interference ratio `(radius/d_min)^α`
    /// (capture can never save a receiver that hears two in-range senders),
    /// and `noise` is calibrated so the reception range equals the radius.
    /// The resulting witness sets are exactly the common neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `topo` has an edge of length 0 (coincident nodes have
    /// infinite gain, which no threshold can dominate).
    pub fn degenerate(topo: &Topology, alpha: f64) -> SinrParams {
        assert!(alpha > 0.0);
        let radius = topo.radius();
        let mut d2_min = f64::INFINITY;
        for u in topo.nodes() {
            let pu = topo.position(u);
            for &v in topo.neighbors(u) {
                if v > u {
                    d2_min = d2_min.min(topo.position(v).dist2(&pu));
                }
            }
        }
        if !d2_min.is_finite() {
            // Edgeless topology: any in-range pair bound works.
            d2_min = radius * radius;
        }
        assert!(d2_min > 0.0, "degenerate SINR needs distinct positions");
        let power = 1.0;
        let beta = 2.0 * (radius * radius / d2_min).powf(alpha / 2.0);
        SinrParams {
            power,
            alpha,
            beta,
            noise: power * radius.powf(-alpha) / beta,
            cutoff: radius,
        }
    }
}

/// The cached pairwise gain matrix of one topology: for every ordered pair
/// within the interference cutoff, `g(u, w) = d(u, w)^−α`, stored as sparse
/// per-node rows sorted by neighbor id.
#[derive(Clone, Debug)]
pub struct GainTable {
    /// [`Topology::token`] of the topology the gains belong to.
    token: u64,
    /// Row `u` spans `ids[starts[u]..starts[u+1]]`.
    starts: Vec<u32>,
    ids: Vec<u32>,
    gains: Vec<f64>,
}

impl GainTable {
    /// Computes all in-cutoff pairwise gains of `topo`, done once per
    /// topology; every later SINR evaluation is a lookup. Candidate pairs
    /// come from a [`CellGrid`] over the positions, so construction is
    /// near-linear at constant density instead of `O(n²)` distance tests.
    pub fn build(topo: &Topology, alpha: f64, cutoff: f64) -> GainTable {
        let n = topo.len();
        let c2 = cutoff * cutoff;
        let positions = topo.positions();
        let grid = CellGrid::build(positions, cutoff);
        let mut starts = Vec::with_capacity(n + 1);
        let mut ids = Vec::new();
        let mut gains = Vec::new();
        starts.push(0);
        for u in 0..n {
            let pu = positions[u];
            for w in grid.neighbors_within(positions, u as u32, cutoff) {
                let d2 = positions[w as usize].dist2(&pu);
                debug_assert!(d2 <= c2);
                ids.push(w);
                gains.push(d2.powf(-alpha / 2.0));
            }
            starts.push(ids.len() as u32);
        }
        GainTable {
            token: topo.token(),
            starts,
            ids,
            gains,
        }
    }

    /// The gain `g(u, w)`, or `None` when `w` is beyond the cutoff of `u`.
    #[inline]
    pub fn gain(&self, u: NodeId, w: usize) -> Option<f64> {
        let lo = self.starts[u.idx()] as usize;
        let hi = self.starts[u.idx() + 1] as usize;
        self.ids[lo..hi]
            .binary_search(&(w as u32))
            .ok()
            .map(|p| self.gains[lo + p])
    }

    /// Number of cached directed gains.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no pair is within the cutoff.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The pairwise SINR conflict model over a cached [`GainTable`].
///
/// Conflict: some node in range of one sender cannot decode it against the
/// other sender's interference (`wit(u, v)` = the vulnerable receivers).
/// Reception: an uninformed node receives iff some in-range sender's
/// signal clears `β` against *each* other concurrent sender taken alone
/// (the pairwise restriction that makes conflict-free sets deliverable —
/// see the crate-level DESIGN note).
#[derive(Clone, Debug)]
pub struct SinrModel {
    /// The model parameters.
    pub params: SinrParams,
    gains: Arc<GainTable>,
}

impl SinrModel {
    /// Builds the model for `topo`, computing the gain table once.
    ///
    /// # Panics
    ///
    /// Panics when `params.cutoff` is below the topology radius (in-range
    /// senders must at least interfere with each other's receivers), or
    /// when `params.beta < 1` — `β ≥ 1` is what guarantees that a
    /// pairwise-conflict-free sender set delivers under the multi-sender
    /// reception rule (the strongest in-range sender then decodes against
    /// every interferer taken alone; see the crate DESIGN note).
    pub fn new(params: SinrParams, topo: &Topology) -> SinrModel {
        assert!(
            params.cutoff >= topo.radius(),
            "interference cutoff below the link radius"
        );
        assert!(
            params.beta >= 1.0,
            "pairwise SINR scheduling requires β ≥ 1"
        );
        SinrModel {
            params,
            gains: Arc::new(GainTable::build(topo, params.alpha, params.cutoff)),
        }
    }

    /// `true` when a signal of gain `g_sig` decodes against a single
    /// interferer of gain `g_int` (0 = no interferer in cutoff).
    #[inline]
    fn delivers(&self, g_sig: f64, g_int: f64) -> bool {
        self.params.power * g_sig
            >= self.params.beta * (self.params.noise + self.params.power * g_int)
    }

    /// `true` when receiver `w` (known in range of sender `s`) decodes `s`
    /// against interferer `i` transmitting concurrently.
    #[inline]
    fn decodes(&self, s: NodeId, i: NodeId, w: usize) -> bool {
        let g_sig = self
            .gains
            .gain(s, w)
            .expect("in-range receiver is within the cutoff");
        let g_int = self.gains.gain(i, w).unwrap_or(0.0);
        self.delivers(g_sig, g_int)
    }

    /// `true` when `w` is a witness of the pair `(u, v)`: in range of at
    /// least one of them, and able to decode *neither* copy of the
    /// broadcast with the other transmitting (`in_u`/`in_v` are the range
    /// memberships the caller already knows).
    #[inline]
    fn pair_witness(&self, u: NodeId, v: NodeId, w: usize, in_u: bool, in_v: bool) -> bool {
        !((in_u && self.decodes(u, v, w)) || (in_v && self.decodes(v, u, w)))
    }

    fn check_topo(&self, topo: &Topology) {
        assert_eq!(
            self.gains.token,
            topo.token(),
            "SinrModel used with a different topology than it was built for"
        );
    }
}

/// `N(u) ∪ N(v)` in ascending order, each node paired with its
/// `(w ∈ N(u), w ∈ N(v))` memberships: a sorted merge of the two CSR lists,
/// `O(deg u + deg v)` at any topology size.
fn either_neighborhood<'a>(
    topo: &'a Topology,
    u: NodeId,
    v: NodeId,
) -> impl Iterator<Item = (usize, bool, bool)> + 'a {
    let mut a = topo.neighbors(u).iter().peekable();
    let mut b = topo.neighbors(v).iter().peekable();
    std::iter::from_fn(move || {
        let (in_u, in_v) = match (a.peek(), b.peek()) {
            (None, None) => return None,
            (Some(_), None) => (true, false),
            (None, Some(_)) => (false, true),
            (Some(i), Some(j)) => (i <= j, j <= i),
        };
        let w = if in_u { a.next() } else { None };
        let w = if in_v { b.next() } else { w };
        w.map(|w| (w.idx(), in_u, in_v))
    })
}

impl ConflictModel for SinrModel {
    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0x53494e52; // "SINR"
        for bits in [
            self.params.power.to_bits(),
            self.params.alpha.to_bits(),
            self.params.beta.to_bits(),
            self.params.noise.to_bits(),
            self.params.cutoff.to_bits(),
            self.gains.token,
        ] {
            h = (h ^ bits).wrapping_mul(0x100000001b3);
        }
        h | 1 // never 0 (0 is the builders' "no model" sentinel)
    }

    #[inline]
    fn locality(&self) -> WitnessLocality {
        WitnessLocality::EitherNeighborhood
    }

    fn conflicts(&self, topo: &Topology, u: NodeId, v: NodeId, uninformed: &NodeSet) -> bool {
        self.check_topo(topo);
        either_neighborhood(topo, u, v).any(|(w, in_u, in_v)| {
            w != u.idx()
                && w != v.idx()
                && uninformed.contains(w)
                && self.pair_witness(u, v, w, in_u, in_v)
        })
    }

    fn collect_witnesses(&self, topo: &Topology, u: NodeId, v: NodeId, out: &mut Vec<u32>) {
        self.check_topo(topo);
        out.clear();
        out.extend(
            either_neighborhood(topo, u, v)
                .filter(|&(w, in_u, in_v)| {
                    w != u.idx() && w != v.idx() && self.pair_witness(u, v, w, in_u, in_v)
                })
                .map(|(w, _, _)| w as u32),
        );
    }

    fn resolve_receptions(
        &self,
        topo: &Topology,
        senders: &NodeSet,
        uninformed: &NodeSet,
    ) -> ReceptionOutcome {
        self.check_topo(topo);
        let n = topo.len();
        let mut received = NodeSet::new(n);
        let mut collided = NodeSet::new(n);
        let sender_ids: Vec<NodeId> = senders.iter().map(|s| NodeId(s as u32)).collect();
        // Only uninformed nodes in range of some sender can receive or
        // collide, so walk the senders' neighbor lists instead of every
        // uninformed node. A node receives when any in-range sender decodes
        // against every other sender; one that hears some sender but
        // decodes none of them collides.
        for &s in &sender_ids {
            for &w in topo.neighbors(s) {
                let w = w.idx();
                if !uninformed.contains(w) || received.contains(w) {
                    continue;
                }
                if sender_ids.iter().all(|&i| i == s || self.decodes(s, i, w)) {
                    received.insert(w);
                } else {
                    collided.insert(w);
                }
            }
        }
        collided.difference_with(&received);
        ReceptionOutcome { received, collided }
    }

    #[inline]
    fn prefers_witness_cache(&self) -> bool {
        true
    }

    fn witness_range(&self, topo: &Topology) -> Option<f64> {
        // Sound only when every in-range link decodes against noise alone
        // (worst in-range gain = radius^−α): then a witness must suffer
        // nonzero interference, which the gain table truncates at `cutoff`,
        // so the two senders sit within radius + cutoff of each other. If
        // noise alone can break an in-range link, that receiver witnesses
        // pairs at any distance and no geometric bound exists.
        self.delivers(topo.radius().powf(-self.params.alpha), 0.0)
            .then_some(topo.radius() + self.params.cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolModel;
    use wsn_geom::Point;

    /// A line where node 1 sits between senders 0 and 2.
    fn line5() -> Topology {
        Topology::unit_disk(
            (0..5).map(|i| Point::new(i as f64 * 0.8, 0.0)).collect(),
            1.0,
        )
    }

    #[test]
    fn gain_table_lookup_and_cutoff() {
        let t = line5();
        let g = GainTable::build(&t, 3.0, 1.0);
        // d(0,1) = 0.8 → gain 0.8^-3.
        let got = g.gain(NodeId(0), 1).unwrap();
        assert!((got - 0.8f64.powf(-3.0)).abs() < 1e-12);
        // d(0,2) = 1.6 > cutoff 1.0 → absent.
        assert!(g.gain(NodeId(0), 2).is_none());
        assert!(!g.is_empty());
    }

    #[test]
    fn witness_invariant_holds() {
        let t = line5();
        let m = SinrModel::new(SinrParams::calibrated(t.radius(), 3.0, 1.5), &t);
        let mut wit = Vec::new();
        for (u, v) in [(0u32, 2u32), (0, 1), (1, 3), (2, 4)] {
            m.collect_witnesses(&t, NodeId(u), NodeId(v), &mut wit);
            // Probe the invariant over a few uninformed sets.
            for unf_ids in [vec![], vec![1usize], vec![1, 3], vec![0, 2, 4], vec![3, 4]] {
                let unf = NodeSet::from_indices(5, unf_ids.iter().copied());
                let expect = wit
                    .iter()
                    .any(|&w| unf.contains(w as usize) && w != u && w != v);
                assert_eq!(
                    m.conflicts(&t, NodeId(u), NodeId(v), &unf),
                    expect,
                    "pair ({u},{v}) vs {unf_ids:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_params_reproduce_protocol_witnesses() {
        let t = line5();
        let m = SinrModel::new(SinrParams::degenerate(&t, 4.0), &t);
        let p = ProtocolModel;
        let mut ws = Vec::new();
        let mut wp = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                m.collect_witnesses(&t, NodeId(u), NodeId(v), &mut ws);
                p.collect_witnesses(&t, NodeId(u), NodeId(v), &mut wp);
                assert_eq!(ws, wp, "witness sets differ for pair ({u},{v})");
            }
        }
        let unf = NodeSet::full(5);
        let senders = NodeSet::from_indices(5, [0, 2]);
        assert_eq!(
            m.resolve_receptions(&t, &senders, &unf),
            p.resolve_receptions(&t, &senders, &unf)
        );
    }

    #[test]
    fn capture_relaxes_the_protocol_conflict() {
        // Receiver 1 is much closer to 0 (0.8) than 2 is (1.6 — but put 2
        // in range via a larger radius): with a modest β the capture
        // effect lets 1 decode 0 despite 2 transmitting, so the SINR model
        // drops conflicts the protocol model keeps.
        let t = Topology::unit_disk(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.4, 0.0),
                Point::new(2.0, 0.0),
                Point::new(2.4, 0.0),
            ],
            2.0,
        );
        let proto = ProtocolModel;
        let sinr = SinrModel::new(SinrParams::calibrated(t.radius(), 3.0, 1.2), &t);
        let unf = NodeSet::from_indices(4, [1, 2]);
        // Protocol: 0 and 3 share uninformed in-range receivers → conflict.
        assert!(proto.conflicts(&t, NodeId(0), NodeId(3), &unf));
        // SINR: 1 captures 0's signal (d 0.4 vs interferer at 2.0) and 2
        // captures 3's (d 0.4 vs 2.0) → no vulnerable receiver.
        assert!(!sinr.conflicts(&t, NodeId(0), NodeId(3), &unf));
        // And the reception rule agrees: both decode concurrently.
        let out = sinr.resolve_receptions(&t, &NodeSet::from_indices(4, [0, 3]), &unf);
        assert_eq!(out.received.to_vec(), vec![1, 2]);
        assert!(out.collided.is_empty());
    }

    #[test]
    fn csr_paths_match_mask_paths() {
        // A jittered grid dense enough that most pairs share neighbors and
        // capture decides some receptions; the mask evaluation below is the
        // pre-CSR implementation, kept here as the ground truth.
        let side = 9;
        let t = Topology::unit_disk(
            (0..side * side)
                .map(|i| {
                    let jitter = ((i * 37) % 11) as f64 * 0.03;
                    Point::new((i % side) as f64 * 0.6 + jitter, (i / side) as f64 * 0.6)
                })
                .collect(),
            1.0,
        );
        let n = t.len();
        let m = SinrModel::new(SinrParams::calibrated(t.radius(), 3.0, 1.5), &t);
        let unf = NodeSet::from_indices(n, (0..n).filter(|i| i % 4 != 0));
        let mut wit = Vec::new();
        for u in t.nodes() {
            for v in t.nodes().filter(|&v| v > u) {
                let (nu, nv) = (t.neighbor_set(u), t.neighbor_set(v));
                let mask_witnesses: Vec<u32> = nu
                    .union(nv)
                    .iter()
                    .filter(|&w| w != u.idx() && w != v.idx())
                    .filter(|&w| m.pair_witness(u, v, w, nu.contains(w), nv.contains(w)))
                    .map(|w| w as u32)
                    .collect();
                m.collect_witnesses(&t, u, v, &mut wit);
                assert_eq!(wit, mask_witnesses, "pair ({u:?},{v:?})");
                let mask_conflict = mask_witnesses.iter().any(|&w| unf.contains(w as usize));
                assert_eq!(m.conflicts(&t, u, v, &unf), mask_conflict);
            }
        }
        for stride in [3, 5, 7, 13] {
            let senders = NodeSet::from_indices(n, (0..n).filter(|i| i % stride == 0));
            let ids: Vec<NodeId> = senders.iter().map(|s| NodeId(s as u32)).collect();
            let mut received = NodeSet::new(n);
            let mut collided = NodeSet::new(n);
            for w in unf.iter() {
                let nw = t.neighbor_set(NodeId(w as u32));
                let in_range: Vec<NodeId> = ids
                    .iter()
                    .copied()
                    .filter(|s| nw.contains(s.idx()))
                    .collect();
                let decoded = in_range
                    .iter()
                    .any(|&s| ids.iter().all(|&i| i == s || m.decodes(s, i, w)));
                if decoded {
                    received.insert(w);
                } else if !in_range.is_empty() {
                    collided.insert(w);
                }
            }
            let out = m.resolve_receptions(&t, &senders, &unf);
            assert!(!out.received.is_empty() && !out.collided.is_empty());
            assert_eq!(out.received, received, "stride {stride}");
            assert_eq!(out.collided, collided, "stride {stride}");
        }
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn topology_mismatch_is_rejected() {
        let t1 = line5();
        let t2 = line5();
        let m = SinrModel::new(SinrParams::calibrated(t1.radius(), 3.0, 1.5), &t1);
        m.conflicts(&t2, NodeId(0), NodeId(1), &NodeSet::full(5));
    }
}
