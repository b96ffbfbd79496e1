//! Broadcast scheduling as a service: a fault-tolerant daemon over the
//! anytime tier.
//!
//! The library supplies the parts — [`reschedule`](wsn_anytime::reschedule)
//! incremental repair, the TWCC-shaped
//! [`LinkEstimator`](wsn_sim::LinkEstimator), and the `wsn_obs` recorder —
//! and this crate is the long-running process that owns them while the
//! network churns underneath:
//!
//! * **Shards** ([`shard`]): one owner thread per resident topology with
//!   its incumbent schedule, served schedule, assumed link quality, and
//!   estimator; every answer is one `reschedule` warm-started from the
//!   incumbent; a bounded oldest-deadline-first queue in front; panic
//!   isolation (`catch_unwind` → quarantine the state → restart cold →
//!   `serve.shard_restarts`).
//! * **Deadline budgets and the degradation ladder** ([`ladder`]):
//!   serial anytime → warm iterations → greedy legalizer; one
//!   function ([`ladder::rung`]) picks the rung and its budget, and the
//!   shard runs the solver.
//!   Every deadline — including ~0 ms — is answered with a *valid,
//!   verified* schedule plus a quality tag ([`Tier`]); nothing ever
//!   times out with no answer.
//! * **Admission control** ([`shard::DeadlineQueue`]): bounded queues,
//!   explicit `Overloaded` responses with `retry_after_ms` backoff hints
//!   priced from a service-time EWMA.
//! * **The closed estimator loop** ([`shard::ShardState`]): `observe`
//!   requests feed ACK evidence; on drift the shard repairs its incumbent
//!   with a *quality-only* [`ChurnDelta`](wsn_anytime::ChurnDelta) of the
//!   links that moved, instead of re-planning from scratch.
//! * **Protocol** ([`proto`]): jsonl over stdin or 4-byte length-prefixed
//!   frames over TCP, one JSON object per request/response ([`json`]).
//! * **Chaos** ([`chaos`]): seeded `FaultScript` campaigns (deaths,
//!   flaps, bursts, storms, injected panics) asserting every served
//!   schedule verified and every refusal was explicit.
//!
//! Metrics ride the existing `wsn_obs` global recorder (installed at
//! daemon startup); the `metrics` verb answers with the
//! `wsn_obs::export::prometheus` text exposition.

pub mod chaos;
pub mod daemon;
pub mod json;
pub mod ladder;
pub mod proto;
pub mod shard;

pub use chaos::{run_campaign, ChaosParams, ChaosReport};
pub use daemon::{Daemon, DaemonConfig};
pub use json::Json;
pub use ladder::{tier_for_deadline, Tier};
pub use proto::{Request, DEFAULT_DEADLINE_MS};
pub use shard::{DeadlineQueue, ShardSpec, ShardState};
