//! The K-channel relaxation and the packaged model enum/spec.

use crate::{
    ConflictModel, ProtocolModel, ReceptionOutcome, SinrModel, SinrParams, WitnessLocality,
};
use wsn_bitset::NodeSet;
use wsn_topology::{NodeId, Topology};

/// A `K`-channel wrapper relaxing any inner conflict model: transmissions
/// on different channels never conflict, so a slot may launch up to `K`
/// sender groups, each conflict-free under the inner model on its own
/// channel (cf. multi-channel minimum-latency aggregation schedules).
///
/// The *pairwise* predicate and witness sets are the inner model's — they
/// describe same-channel coexistence, which is what the conflict graph and
/// the coloring consume; the channel relaxation happens at slot-assembly
/// time (`wsn-coloring::pack_channels`) and at verification time
/// (`Schedule::verify_with_model` resolves each channel group separately).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiChannel<M> {
    /// The same-channel conflict model.
    pub inner: M,
    /// Number of orthogonal channels (`≥ 1`).
    pub k: u32,
}

impl<M: ConflictModel> MultiChannel<M> {
    /// Wraps `inner` with `k` orthogonal channels.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(inner: M, k: u32) -> MultiChannel<M> {
        assert!(k >= 1, "a radio needs at least one channel");
        MultiChannel { inner, k }
    }
}

impl<M: ConflictModel> ConflictModel for MultiChannel<M> {
    fn fingerprint(&self) -> u64 {
        self.inner
            .fingerprint()
            .rotate_left(17)
            .wrapping_mul(0x9e3779b97f4a7c15)
            ^ u64::from(self.k)
    }

    #[inline]
    fn channels(&self) -> u32 {
        self.k
    }

    #[inline]
    fn locality(&self) -> WitnessLocality {
        self.inner.locality()
    }

    #[inline]
    fn conflicts(&self, topo: &Topology, u: NodeId, v: NodeId, uninformed: &NodeSet) -> bool {
        self.inner.conflicts(topo, u, v, uninformed)
    }

    #[inline]
    fn collect_witnesses(&self, topo: &Topology, u: NodeId, v: NodeId, out: &mut Vec<u32>) {
        self.inner.collect_witnesses(topo, u, v, out)
    }

    #[inline]
    fn resolve_receptions(
        &self,
        topo: &Topology,
        senders: &NodeSet,
        uninformed: &NodeSet,
    ) -> ReceptionOutcome {
        self.inner.resolve_receptions(topo, senders, uninformed)
    }

    #[inline]
    fn prefers_witness_cache(&self) -> bool {
        self.inner.prefers_witness_cache()
    }

    #[inline]
    fn witness_range(&self, topo: &Topology) -> Option<f64> {
        self.inner.witness_range(topo)
    }
}

/// The concrete model combinations the workspace ships, behind one
/// non-generic type so schedulers, sweeps and benches can hold "a model"
/// without a type parameter.
#[derive(Clone, Debug)]
pub enum PhyModel {
    /// The paper's protocol model.
    Protocol(ProtocolModel),
    /// Pairwise SINR.
    Sinr(SinrModel),
    /// K channels over the protocol model.
    MultiProtocol(MultiChannel<ProtocolModel>),
    /// K channels over pairwise SINR.
    MultiSinr(MultiChannel<SinrModel>),
}

impl PhyModel {
    /// The single-channel protocol model (the default everywhere).
    pub fn protocol() -> PhyModel {
        PhyModel::Protocol(ProtocolModel)
    }
}

macro_rules! dispatch {
    ($self:ident, $m:ident => $body:expr) => {
        match $self {
            PhyModel::Protocol($m) => $body,
            PhyModel::Sinr($m) => $body,
            PhyModel::MultiProtocol($m) => $body,
            PhyModel::MultiSinr($m) => $body,
        }
    };
}

impl ConflictModel for PhyModel {
    fn fingerprint(&self) -> u64 {
        dispatch!(self, m => m.fingerprint())
    }

    fn channels(&self) -> u32 {
        dispatch!(self, m => m.channels())
    }

    fn locality(&self) -> WitnessLocality {
        dispatch!(self, m => m.locality())
    }

    fn conflicts(&self, topo: &Topology, u: NodeId, v: NodeId, uninformed: &NodeSet) -> bool {
        dispatch!(self, m => m.conflicts(topo, u, v, uninformed))
    }

    fn collect_witnesses(&self, topo: &Topology, u: NodeId, v: NodeId, out: &mut Vec<u32>) {
        dispatch!(self, m => m.collect_witnesses(topo, u, v, out))
    }

    fn resolve_receptions(
        &self,
        topo: &Topology,
        senders: &NodeSet,
        uninformed: &NodeSet,
    ) -> ReceptionOutcome {
        dispatch!(self, m => m.resolve_receptions(topo, senders, uninformed))
    }

    fn prefers_witness_cache(&self) -> bool {
        dispatch!(self, m => m.prefers_witness_cache())
    }

    fn witness_range(&self, topo: &Topology) -> Option<f64> {
        dispatch!(self, m => m.witness_range(topo))
    }
}

/// The inner (same-channel) model of a [`PhyModelSpec`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BaseModel {
    /// The paper's protocol model.
    Protocol,
    /// Pairwise SINR with explicit parameters.
    Sinr(SinrParams),
    /// Pairwise SINR with [`SinrParams::degenerate`] parameters derived
    /// from the instance topology (protocol-equivalent by construction;
    /// the field is the path-loss exponent `α`).
    SinrDegenerate {
        /// Path-loss exponent.
        alpha: f64,
    },
}

/// A cheap, topology-independent model description — what sweeps and
/// benches put on their model/channel axes. [`PhyModelSpec::build`]
/// instantiates it per topology (SINR parameters may derive from instance
/// geometry, and the gain table is per-topology anyway).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhyModelSpec {
    /// The same-channel conflict model.
    pub base: BaseModel,
    /// Orthogonal channels (`1` = the single-channel system).
    pub channels: u32,
}

impl Default for PhyModelSpec {
    fn default() -> Self {
        PhyModelSpec::protocol()
    }
}

impl PhyModelSpec {
    /// The single-channel protocol model (the paper's system).
    pub fn protocol() -> PhyModelSpec {
        PhyModelSpec {
            base: BaseModel::Protocol,
            channels: 1,
        }
    }

    /// Single-channel pairwise SINR with explicit parameters.
    pub fn sinr(params: SinrParams) -> PhyModelSpec {
        PhyModelSpec {
            base: BaseModel::Sinr(params),
            channels: 1,
        }
    }

    /// Same base model over `k` orthogonal channels.
    pub fn with_channels(mut self, k: u32) -> PhyModelSpec {
        assert!(k >= 1);
        self.channels = k;
        self
    }

    /// Instantiates the model for one topology.
    pub fn build(&self, topo: &Topology) -> PhyModel {
        let k = self.channels;
        match self.base {
            BaseModel::Protocol => {
                if k == 1 {
                    PhyModel::Protocol(ProtocolModel)
                } else {
                    PhyModel::MultiProtocol(MultiChannel::new(ProtocolModel, k))
                }
            }
            BaseModel::Sinr(params) => {
                let m = SinrModel::new(params, topo);
                if k == 1 {
                    PhyModel::Sinr(m)
                } else {
                    PhyModel::MultiSinr(MultiChannel::new(m, k))
                }
            }
            BaseModel::SinrDegenerate { alpha } => {
                let m = SinrModel::new(SinrParams::degenerate(topo, alpha), topo);
                if k == 1 {
                    PhyModel::Sinr(m)
                } else {
                    PhyModel::MultiSinr(MultiChannel::new(m, k))
                }
            }
        }
    }

    /// Short display label for result tables ("protocol", "sinr-k4", …).
    pub fn label(&self) -> String {
        let base = match self.base {
            BaseModel::Protocol => "protocol",
            BaseModel::Sinr(_) => "sinr",
            BaseModel::SinrDegenerate { .. } => "sinr-degen",
        };
        if self.channels == 1 {
            base.to_string()
        } else {
            format!("{base}-k{}", self.channels)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::Point;

    fn line(n: usize) -> Topology {
        Topology::unit_disk(
            (0..n).map(|i| Point::new(i as f64 * 0.8, 0.0)).collect(),
            1.0,
        )
    }

    #[test]
    fn multichannel_delegates_pairwise_semantics() {
        let t = line(6);
        let inner = ProtocolModel;
        let multi = MultiChannel::new(inner, 4);
        assert_eq!(multi.channels(), 4);
        assert_eq!(multi.locality(), inner.locality());
        let unf = NodeSet::from_indices(6, [2, 3, 4, 5]);
        for (u, v) in [(0u32, 2u32), (1, 3), (0, 5)] {
            assert_eq!(
                multi.conflicts(&t, NodeId(u), NodeId(v), &unf),
                inner.conflicts(&t, NodeId(u), NodeId(v), &unf)
            );
        }
    }

    #[test]
    fn spec_builds_and_labels() {
        let t = line(6);
        assert_eq!(PhyModelSpec::protocol().label(), "protocol");
        assert_eq!(
            PhyModelSpec::protocol().with_channels(4).label(),
            "protocol-k4"
        );
        let spec = PhyModelSpec {
            base: BaseModel::SinrDegenerate { alpha: 4.0 },
            channels: 2,
        };
        assert_eq!(spec.label(), "sinr-degen-k2");
        let m = spec.build(&t);
        assert_eq!(m.channels(), 2);
        assert_eq!(m.locality(), WitnessLocality::EitherNeighborhood);
        let p = PhyModelSpec::protocol().build(&t);
        assert_eq!(p.channels(), 1);
        assert_ne!(p.fingerprint(), m.fingerprint());
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        MultiChannel::new(ProtocolModel, 0);
    }
}
