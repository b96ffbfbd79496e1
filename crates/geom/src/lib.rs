//! 2-D geometry substrate for WSN topologies.
//!
//! The paper's deployment model places nodes in a plane and derives both the
//! unit-disk graph (`wsn-topology`) and the E-model's directional structure
//! from plane geometry:
//!
//! * [`Point`] — node positions, distances;
//! * [`convex_hull`] — Andrew's monotone chain, the paper's network-edge
//!   seeds (reference \[3\]); the angular-gap test flags every hull
//!   vertex, and tests use the hull as its oracle;
//! * [`Quadrant`] — the quadrant partition `Q_1(u)..Q_4(u)` around a node,
//!   which indexes the E-model 4-tuple (§IV-E);
//! * [`max_angular_gap`] — the largest empty angular sector among a node's
//!   neighbor bearings, used by the boundary-construction step (the paper's
//!   reference \[6\]): a node whose neighbors leave a wide empty sector
//!   faces open space and lies on the network edge;
//! * [`CellGrid`] — a uniform spatial hash for radius-bounded neighbor and
//!   pair queries, the near-linear substitute for all-pairs scans in
//!   topology construction, gain tables and conflict-pair enumeration at
//!   10k–100k nodes.

mod grid;
mod hull;
mod point;
mod quadrant;

pub use grid::CellGrid;
pub use hull::{convex_hull, polygon_area};
pub use point::{Point, Rect};
pub use quadrant::{max_angular_gap, Quadrant};
