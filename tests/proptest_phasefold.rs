//! Phase-folding equivalence properties: on arbitrary small duty-cycled
//! instances, the phase-folded search must return exactly the latency and
//! exactness flag of the unfolded `(StateId, phase)` search, across cycle
//! rates {2, 5, 10, 50} and both branch rules (OPT's maximal sets and
//! G-OPT's greedy classes). The fold is a pure state-compression: any
//! divergence is a soundness bug in the horizon ladder or the
//! relevant-set restriction.

use mlbs::core::SearchConfig;
use mlbs::prelude::*;
use proptest::prelude::*;

/// Small connected deployments: a denser-than-paper area so 14–26 nodes
/// connect at the 10 ft radius without eccentricity demands.
fn arb_small_topo() -> impl Strategy<Value = (Topology, NodeId)> {
    (14usize..26, 0u64..400).prop_map(|(n, seed)| {
        SyntheticDeployment {
            area: Rect::with_size(25.0, 25.0),
            nodes: n,
            radius: 10.0,
            ecc_range: None,
            max_attempts: 10_000,
            hole: None,
        }
        .sample(seed)
    })
}

/// The duty rates the paper's evaluation spans, plus the fold-stressing
/// extremes.
const RATES: [u32; 4] = [2, 5, 10, 50];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn folded_search_matches_unfolded(
        (topo, src) in arb_small_topo(),
        rate_idx in 0usize..4,
        wake_seed in 0u64..1000,
    ) {
        let rate = RATES[rate_idx];
        // Few windows keep the period (and the test) small while still
        // giving every phase a distinct wake pattern.
        let wake = WindowedRandom::with_windows(topo.len(), rate, wake_seed, 6);
        let folded = SearchConfig {
            phase_fold: true,
            ..SearchConfig::default()
        };
        let unfolded = SearchConfig {
            phase_fold: false,
            ..SearchConfig::default()
        };

        let of = solve_opt(&topo, src, &wake, &folded);
        let ou = solve_opt(&topo, src, &wake, &unfolded);
        prop_assert_eq!(
            (of.latency, of.exact),
            (ou.latency, ou.exact),
            "OPT diverged at rate {}", rate
        );
        of.schedule.verify(&topo, &wake).unwrap();

        let gf = solve_gopt(&topo, src, &wake, &folded);
        let gu = solve_gopt(&topo, src, &wake, &unfolded);
        prop_assert_eq!(
            (gf.latency, gf.exact),
            (gu.latency, gu.exact),
            "G-OPT diverged at rate {}", rate
        );
        gf.schedule.verify(&topo, &wake).unwrap();

        // The orderings OPT ≤ G-OPT and folding-never-grows-the-memo are
        // part of the contract too.
        prop_assert!(of.latency <= gf.latency);
        prop_assert!(of.stats.memo_entries <= ou.stats.memo_entries);
    }
}
