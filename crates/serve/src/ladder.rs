//! The graceful degradation ladder: deadline budget → solver tier.
//!
//! The daemon's serving contract is "always answer with a valid,
//! verified schedule" — a deadline never times out with nothing. What
//! shrinks with the deadline is *quality*, down four rungs:
//!
//! | rung | deadline | solver |
//! |---|---|---|
//! | `Portfolio` | ≥ 200 ms | two-chain [`Portfolio`] race, wall-clock half the budget |
//! | `Serial` | ≥ 50 ms | one-chain [`Portfolio`] (the serial chain), wall-clock half the budget |
//! | `Warm` | ≥ 10 ms | one chain, small fixed iteration budget |
//! | `Greedy` | < 10 ms | greedy legalizer only (`Budget::Iterations(0)`) |
//!
//! Every rung solves through [`Portfolio::solve`] with the shard's
//! [`ScheduleCache`], so a held topology warm-starts from its previous
//! incumbent on whichever rung it lands.
//!
//! The rung is a function of the *requested* deadline alone, so the
//! quality tag is monotone in the deadline by construction (the ladder
//! proptest pins this); the wall-clock budget handed to the solver is
//! derived from the *remaining* deadline at dequeue time, so queueing
//! delay eats search time, not correctness. Every rung ends in the
//! legalizer and re-verifies before the incumbent moves, so even the
//! bottom rung serves a valid schedule.

use wsn_anytime::{
    reschedule, AnytimeConfig, AnytimeOutcome, Budget, ChurnDelta, Portfolio, RepairOutcome,
    ScheduleCache,
};
use wsn_dutycycle::WakeSchedule;
use wsn_phy::ConflictModel;
use wsn_topology::{NodeId, Topology};

/// Deadline thresholds of the ladder, in ms (see module docs).
pub const PORTFOLIO_MS: u64 = 200;
/// Serial-anytime rung threshold.
pub const SERIAL_MS: u64 = 50;
/// Cached warm-start rung threshold.
pub const WARM_MS: u64 = 10;

/// Iteration budget of the `Warm` rung (bounded work, warm-started).
const WARM_ITERS: u64 = 2_000;

/// Quality tag of a served schedule — which rung produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Greedy legalizer only.
    Greedy,
    /// Cached warm-start with a small iteration budget.
    Warm,
    /// Serial anytime search on a wall-clock budget.
    Serial,
    /// Multi-chain portfolio race on a wall-clock budget.
    Portfolio,
}

impl Tier {
    /// The protocol's string tag.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Greedy => "greedy",
            Tier::Warm => "warm",
            Tier::Serial => "serial",
            Tier::Portfolio => "portfolio",
        }
    }

    /// Monotone rank (higher = better quality).
    pub fn rank(self) -> u8 {
        match self {
            Tier::Greedy => 0,
            Tier::Warm => 1,
            Tier::Serial => 2,
            Tier::Portfolio => 3,
        }
    }

    fn counter(self) -> &'static str {
        match self {
            Tier::Greedy => "serve.tier.greedy",
            Tier::Warm => "serve.tier.warm",
            Tier::Serial => "serve.tier.serial",
            Tier::Portfolio => "serve.tier.portfolio",
        }
    }
}

/// The rung a requested deadline buys.
pub fn tier_for_deadline(deadline_ms: u64) -> Tier {
    if deadline_ms >= PORTFOLIO_MS {
        Tier::Portfolio
    } else if deadline_ms >= SERIAL_MS {
        Tier::Serial
    } else if deadline_ms >= WARM_MS {
        Tier::Warm
    } else {
        Tier::Greedy
    }
}

fn budget_for(tier: Tier, remaining_ms: u64) -> Budget {
    match tier {
        // Half the remaining budget for search; the other half is
        // headroom for legalization, verification, and reply framing.
        Tier::Portfolio | Tier::Serial => Budget::WallClockMs((remaining_ms / 2).max(1)),
        Tier::Warm => Budget::Iterations(WARM_ITERS),
        Tier::Greedy => Budget::Iterations(0),
    }
}

/// Full solve under the ladder: rung from the requested deadline, budget
/// from the remaining one. Always returns a schedule that verified under
/// `model` (verification failure panics — the shard's isolation layer
/// turns that into a cold restart, never a silently-invalid answer).
#[allow(clippy::too_many_arguments)]
pub fn solve_with_deadline<S, M>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    model: &M,
    cache: &mut ScheduleCache,
    base: &AnytimeConfig,
    deadline_ms: u64,
    remaining_ms: u64,
) -> (AnytimeOutcome, Tier)
where
    S: WakeSchedule + Sync,
    M: ConflictModel,
{
    let tier = tier_for_deadline(deadline_ms);
    let cfg = AnytimeConfig {
        budget: budget_for(tier, remaining_ms),
        ..base.clone()
    };
    let chains = if tier == Tier::Portfolio { 2 } else { 1 };
    let out = Portfolio::with_config(cfg, chains).solve(topo, source, wake, model, Some(cache));
    out.schedule
        .verify_with_model(topo, wake, model)
        .expect("ladder produced an invalid schedule");
    wsn_obs::counter_add(tier.counter(), 1);
    (out, tier)
}

/// Incremental reschedule under the ladder: repairs `old` against
/// `delta`, budgeted like [`solve_with_deadline`]. The repaired schedule
/// verified under `model` over the surviving subgraph
/// (`RepairOutcome::mask`) before return.
#[allow(clippy::too_many_arguments)]
pub fn reschedule_with_deadline<S, M>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    model: &M,
    old: &mlbs_core::Schedule,
    delta: &ChurnDelta,
    base: &AnytimeConfig,
    deadline_ms: u64,
    remaining_ms: u64,
) -> (RepairOutcome, Tier)
where
    S: WakeSchedule + Sync,
    M: ConflictModel,
{
    let tier = tier_for_deadline(deadline_ms);
    // Repair chains are serial (the warm replay dominates); the portfolio
    // rung maps onto a wall-clock repair budget instead of a chain race.
    let cfg = AnytimeConfig {
        budget: match tier {
            Tier::Portfolio | Tier::Serial => Budget::WallClockMs((remaining_ms / 2).max(1)),
            Tier::Warm => Budget::Iterations(WARM_ITERS),
            Tier::Greedy => Budget::Iterations(0),
        },
        ..base.clone()
    };
    let rep = reschedule(topo, source, wake, model, old, delta, &cfg);
    rep.outcome
        .schedule
        .verify_covering_with_model(topo, wake, model, Some(&rep.mask))
        .expect("ladder produced an invalid repair");
    wsn_obs::counter_add(tier.counter(), 1);
    (rep, tier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_dutycycle::AlwaysAwake;
    use wsn_phy::ProtocolModel;
    use wsn_topology::deploy::SyntheticDeployment;

    #[test]
    fn tier_is_monotone_in_the_deadline() {
        let mut last = Tier::Greedy;
        for d in 0..400 {
            let t = tier_for_deadline(d);
            assert!(t.rank() >= last.rank(), "rank dropped at {d} ms");
            last = t;
        }
        assert_eq!(tier_for_deadline(0), Tier::Greedy);
        assert_eq!(tier_for_deadline(PORTFOLIO_MS), Tier::Portfolio);
    }

    #[test]
    fn zero_deadline_still_serves_a_valid_schedule() {
        let (topo, src) = SyntheticDeployment::paper(120).sample(4);
        let mut cache = ScheduleCache::new();
        let base = AnytimeConfig::default();
        let (out, tier) = solve_with_deadline(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &mut cache,
            &base,
            0,
            0,
        );
        assert_eq!(tier, Tier::Greedy);
        out.schedule.verify(&topo, &AlwaysAwake).unwrap();
    }

    #[test]
    fn warm_rung_never_loses_to_the_cached_incumbent() {
        let (topo, src) = SyntheticDeployment::paper(150).sample(9);
        let mut cache = ScheduleCache::new();
        let base = AnytimeConfig::default();
        // Seed the cache with a serial solve, then ask for a warm answer:
        // the warm-start contract says it cannot come back worse.
        let good = AnytimeConfig {
            budget: Budget::Iterations(20_000),
            ..base.clone()
        };
        let strong = Portfolio::with_config(good, 1).solve(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            Some(&mut cache),
        );
        let (warm, tier) = solve_with_deadline(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &mut cache,
            &base,
            WARM_MS,
            WARM_MS,
        );
        assert_eq!(tier, Tier::Warm);
        assert!(warm.latency <= strong.latency);
    }
}
