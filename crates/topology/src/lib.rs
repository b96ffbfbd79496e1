//! WSN topologies: deployments, unit-disk-graph adjacency, hop metrics,
//! and network-edge detection.
//!
//! The paper models a WSN as a graph `G = (N, E)` induced by node positions
//! under the unit-disk-graph (UDG) model: `u` and `v` are neighbors exactly
//! when their distance is at most the communication radius (§III). This
//! crate owns everything derived from positions:
//!
//! * [`Topology`] — positions + radius + CSR adjacency, the one adjacency
//!   at every scale; per-node `N(u)` bitsets are a small-`n` view for the
//!   exact tier, built from the CSR on first use;
//! * [`deploy`] — §V-A deployments: uniform random nodes in a 50×50 sq-ft
//!   area with radius 10 ft, plus grid / clustered / punched-hole variants
//!   and eccentricity-constrained source selection (5–8 hops);
//! * [`metrics`] — BFS hop distances, eccentricity, diameter;
//! * [`LinkQuality`] — per-link delivery probabilities layered over the
//!   UDG edges (uniform or synthetic distance-correlated loss with
//!   flap-prone edges), the substrate of every loss-aware path;
//! * [`boundary`] — the network-edge detection used to seed the E-model
//!   (angular-gap boundary construction, which flags every convex-hull
//!   vertex; paper refs \[3\], \[6\]);
//! * [`fixtures`] — the paper's Figure 1 and Figure 2 example networks,
//!   reconstructed so the UDG reproduces Table II/III/IV exactly.

mod csr;
mod quality;
mod topo;

pub mod boundary;
pub mod connectivity;
pub mod deploy;
pub mod fixtures;
pub mod io;
pub mod metrics;

pub use csr::Csr;
pub use quality::{LinkQuality, LinkQualityParams};
pub use topo::Topology;

/// Index of a node in a topology. Kept as a bare `u32` newtype: node counts
/// in the paper's evaluation are ≤ 300, and compact ids keep the hot bitset
/// and CSR paths cache-friendly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    #[inline]
    fn from(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
