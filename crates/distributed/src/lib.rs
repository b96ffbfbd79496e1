//! Localized conflict-aware broadcast scheduling.
//!
//! §VII of the paper names "a localized color scheme and its selection to
//! provide a more reliable and scalable solution" as the next step beyond
//! the centralized schedulers. This crate realizes that direction as a
//! message-passing simulation in which every decision uses only
//! information a node can learn from its neighborhood:
//!
//! * [`NeighborhoodKnowledge`] — what beaconing gives a node (§III): its
//!   neighbors' positions and wake seeds, and (one hop further, relayed
//!   once) its 2-hop neighborhood — enough to evaluate the Eq. (1)
//!   conflict predicate *locally*;
//! * [`distributed_emodel`] — the E-model built by asynchronous
//!   message-passing relaxation, with per-node message accounting: the
//!   protocol-level validation of Theorem 3. Seeds come from the *local*
//!   angular-gap test, the centralized edge rule itself (a hull vertex's
//!   neighbors fit in a half-plane, so its gap is ≥ 180° and no hull pass
//!   is needed);
//! * [`localized_broadcast`] — the localized scheduler: every candidate
//!   announces its priority to its 2-hop neighborhood and transmits iff no
//!   *conflicting* candidate announced a higher one. Winners are
//!   conflict-free by the total priority order, so schedules still verify;
//!   the cost of locality is that some deferrals are unnecessary (a
//!   deferred node's dominator may itself defer), which the tests
//!   measure against the centralized pipeline.

mod econstruct;
mod knowledge;
mod localized;

pub use econstruct::{distributed_emodel, matches_centralized, DistributedEStats};
pub use knowledge::NeighborhoodKnowledge;
pub use localized::{
    localized_broadcast, localized_broadcast_with, LocalizedOutcome, LocalizedStats,
};
