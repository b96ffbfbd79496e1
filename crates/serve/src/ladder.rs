//! The graceful degradation ladder: deadline budget → solver tier.
//!
//! The daemon's serving contract is "always answer with a valid,
//! verified schedule" — a deadline never times out with nothing. What
//! shrinks with the deadline is *quality*, down three rungs:
//!
//! | rung | deadline | budget |
//! |---|---|---|
//! | `Serial` | ≥ 50 ms | wall clock, half the remaining deadline |
//! | `Warm` | ≥ 10 ms | a small fixed iteration budget |
//! | `Greedy` | < 10 ms | greedy legalizer only (`Budget::Iterations(0)`) |
//!
//! [`rung`] maps a request to its tier and the [`AnytimeConfig`] that
//! tier runs. The shard does the solving: every solve, churn and drift
//! repair is one [`reschedule`](wsn_anytime::reschedule) warm-started
//! from the shard's incumbent, whichever rung it lands on.
//!
//! The rung is a function of the *requested* deadline alone, so the
//! quality tag is monotone in the deadline by construction (the ladder
//! proptest pins this); the wall-clock budget handed to the solver is
//! derived from the *remaining* deadline at dequeue time, so queueing
//! delay eats search time, not correctness. Every rung ends in the
//! legalizer and re-verifies before the incumbent moves, so even the
//! bottom rung serves a valid schedule.

use wsn_anytime::{AnytimeConfig, Budget};

/// Serial-anytime rung threshold, in ms (see module docs).
pub const SERIAL_MS: u64 = 50;
/// Warm rung threshold.
pub const WARM_MS: u64 = 10;

/// Iteration budget of the `Warm` rung (bounded work, warm-started).
const WARM_ITERS: u64 = 2_000;

/// Quality tag of a served schedule — which rung produced it. The derived
/// order ranks quality: a later variant is a better rung.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Greedy legalizer only.
    Greedy,
    /// A small iteration budget from the incumbent.
    Warm,
    /// Serial anytime search on a wall-clock budget.
    Serial,
}

impl Tier {
    /// The protocol's string tag.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Greedy => "greedy",
            Tier::Warm => "warm",
            Tier::Serial => "serial",
        }
    }

    /// The `wsn_obs` counter bumped once per schedule the rung serves.
    pub(crate) fn counter(self) -> &'static str {
        match self {
            Tier::Greedy => "serve.tier.greedy",
            Tier::Warm => "serve.tier.warm",
            Tier::Serial => "serve.tier.serial",
        }
    }
}

/// The rung a requested deadline buys.
pub fn tier_for_deadline(deadline_ms: u64) -> Tier {
    if deadline_ms >= SERIAL_MS {
        Tier::Serial
    } else if deadline_ms >= WARM_MS {
        Tier::Warm
    } else {
        Tier::Greedy
    }
}

/// The ladder: the rung the *requested* deadline buys, and `base` with
/// that rung's budget, sized from the deadline *remaining* at dequeue.
pub fn rung(base: &AnytimeConfig, deadline_ms: u64, remaining_ms: u64) -> (Tier, AnytimeConfig) {
    let tier = tier_for_deadline(deadline_ms);
    let budget = match tier {
        // Half the remaining budget for search; the other half is
        // headroom for legalization, verification, and reply framing.
        Tier::Serial => Budget::WallClockMs((remaining_ms / 2).max(1)),
        Tier::Warm => Budget::Iterations(WARM_ITERS),
        Tier::Greedy => Budget::Iterations(0),
    };
    let cfg = AnytimeConfig {
        budget,
        ..base.clone()
    };
    (tier, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_is_monotone_in_the_deadline() {
        let mut last = Tier::Greedy;
        for d in 0..400 {
            let t = tier_for_deadline(d);
            assert!(t >= last, "rank dropped at {d} ms");
            last = t;
        }
        assert_eq!(tier_for_deadline(0), Tier::Greedy);
        for d in [SERIAL_MS, 200, 399] {
            assert_eq!(tier_for_deadline(d), Tier::Serial, "{d} ms");
        }
    }
}
