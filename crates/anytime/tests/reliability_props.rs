//! Property tests for incremental repair: after an arbitrary churn walk
//! (nodes dying in waves), `reschedule` always emits a schedule that
//! verifies over the survivors, reports the disconnected remainder
//! instead of failing, and never ends worse than re-legalizing the same
//! masked instance from scratch.

use proptest::prelude::*;
use std::collections::HashSet;
use wsn_anytime::{reschedule, solve_anytime, AnytimeConfig, Budget, ChurnDelta};
use wsn_dutycycle::AlwaysAwake;
use wsn_phy::ProtocolModel;
use wsn_topology::deploy::SyntheticDeployment;
use wsn_topology::NodeId;

fn cfg(iters: u64) -> AnytimeConfig {
    AnytimeConfig {
        budget: Budget::Iterations(iters),
        ..AnytimeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A churn walk of up to three death waves: every intermediate repair
    /// verifies over the survivors (uncovered nodes are reported, not
    /// silently dropped), and the final repaired schedule is never worse
    /// than a cold re-legalization of the same masked instance.
    #[test]
    fn churn_walk_repairs_stay_valid_and_never_lose_to_cold(
        seed in 0..40u64,
        n in 60usize..120,
        waves in 1usize..4,
        per_wave in 1usize..3,
    ) {
        let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
        let base = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg(3_000));

        // Deterministic victim walk: hash-pick alive non-source nodes.
        let mut dead: Vec<NodeId> = Vec::new();
        let mut dead_set: HashSet<u32> = HashSet::new();
        let mut current = base.schedule.clone();
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xC0DE;
        for _wave in 0..waves {
            for _ in 0..per_wave {
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 27;
                let pick = NodeId((x % n as u64) as u32);
                if pick != src && dead_set.insert(pick.0) {
                    dead.push(pick);
                }
            }
            // Cumulative delta: the mask is rebuilt from scratch each wave.
            let delta = ChurnDelta::deaths(dead.iter().copied());
            let rep = reschedule(
                &topo, src, &AlwaysAwake, &ProtocolModel, &current, &delta, &cfg(200),
            );
            prop_assert!(rep
                .outcome
                .schedule
                .verify_covering_with_model(&topo, &AlwaysAwake, &ProtocolModel, Some(&rep.mask))
                .is_ok());
            for &d in &dead {
                prop_assert!(rep.mask.contains(d.idx()), "dead node must be masked");
            }
            for &u in &rep.uncovered {
                prop_assert!(rep.mask.contains(u.idx()), "uncovered implies masked");
                prop_assert!(!dead_set.contains(&u.0), "uncovered nodes are alive");
            }
            current = rep.outcome.schedule.clone();
        }

        // Final state: warm repair from the walked schedule vs a cold
        // re-legalization of the same masked instance.
        let delta = ChurnDelta::deaths(dead.iter().copied());
        let warm = reschedule(
            &topo, src, &AlwaysAwake, &ProtocolModel, &current, &delta, &cfg(0),
        );
        let empty = mlbs_core::Schedule {
            source: src,
            start: 1,
            entries: Vec::new(),
            repeats: Vec::new(),
        };
        let cold = reschedule(
            &topo, src, &AlwaysAwake, &ProtocolModel, &empty, &delta, &cfg(0),
        );
        prop_assert!(
            warm.outcome.latency <= cold.outcome.latency,
            "warm repair ({}) must not lose to cold re-legalization ({})",
            warm.outcome.latency,
            cold.outcome.latency
        );
    }
}
