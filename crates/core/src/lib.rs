//! Minimum-latency broadcast scheduling with conflict awareness.
//!
//! This crate implements the contribution of *Jiang, Wu, Guo, Wu, Kline,
//! Wang — "Minimum Latency Broadcasting with Conflict Awareness in Wireless
//! Sensor Networks" (ICPP 2012)*: a pipelined, conflict-aware broadcast
//! scheduling discipline for wireless sensor networks, in both the
//! round-based synchronous and the asynchronous duty-cycle timing regimes.
//!
//! # The model
//!
//! A broadcast from a source `s` proceeds in *advances*: in each round/slot
//! one conflict-free set of informed senders (a *color*, Eq. 1) transmits,
//! and every uninformed neighbor of a sender receives. The defining idea of
//! the paper is that after every advance the candidate relays are
//! **re-colored against the current informed set `W`** — backed-off relays
//! compete again next slot together with freshly informed nodes, forming a
//! pipeline instead of the per-BFS-layer barrier of prior schemes.
//!
//! # Schedulers (Algorithm 3)
//!
//! * [`solve_opt`] — the OPT target: exact minimization of the time counter
//!   `M` (Eq. 4) branching over *every* admissible color (maximal
//!   conflict-free sender sets; Eq. 5/6). Exponential in the worst case;
//!   a branch cap turns it into a beam search whose result is still a
//!   valid schedule and an upper bound on true OPT.
//! * [`solve_gopt`] — the G-OPT target: the same recursion restricted to
//!   the classes of the extended greedy color scheme (Eq. 7/8).
//! * [`EModel`] + [`run_pipeline`] — the practical scheme: a proactive
//!   4-tuple `E_i(u)` estimating the delay from `u` to the network edge in
//!   each quadrant (Algorithm 2; Eq. 9 sync / Eq. 11 duty-cycle) drives the
//!   color selection (Eq. 10) in a single forward pass.
//!
//! Both timing regimes run through the same code paths, parameterized by a
//! [`wsn_dutycycle::WakeSchedule`]: the synchronous system is simply the
//! [`wsn_dutycycle::AlwaysAwake`] schedule (`r = 1`).
//!
//! # Entry points
//!
//! ```
//! use mlbs_core::{run_pipeline, EModel, EModelSelector, PipelineConfig};
//! use wsn_dutycycle::AlwaysAwake;
//! use wsn_topology::fixtures;
//!
//! let f = fixtures::fig1();
//! let emodel = EModel::build(&f.topo, &AlwaysAwake);
//! let schedule = run_pipeline(
//!     &f.topo,
//!     f.source,
//!     &AlwaysAwake,
//!     &mut EModelSelector::new(&emodel),
//!     &PipelineConfig::default(),
//! );
//! assert_eq!(schedule.latency(), 3); // the paper's optimum for Figure 1
//! schedule.verify(&f.topo, &AlwaysAwake).unwrap();
//! ```

pub mod bounds;
mod emodel;
mod pipeline;
mod reliability;
mod schedule;
mod search;
mod trace;

pub use emodel::{EModel, EModelSelector, EModelStats, ScalarESelector, ScalarEdgeDistance};
pub use pipeline::{
    run_pipeline, run_pipeline_model, run_pipeline_with, ColorSelector, MaxReceiversSelector,
    PipelineConfig,
};
pub use reliability::{ReliabilityError, ReliabilityReport};
pub use schedule::{Schedule, ScheduleEntry, ScheduleError};
pub use search::{
    solve_gopt, solve_gopt_model, solve_gopt_with, solve_opt, solve_opt_model, solve_opt_with,
    SearchConfig, SearchOutcome, SearchStats,
};
pub use trace::{SearchTrace, TraceState};

// The broadcast-state substrate every scheduler threads through; re-exported
// so consumers of the schedulers can hold one without a direct
// `wsn-coloring` dependency.
pub use wsn_coloring::BroadcastState;
