//! Soundness of the wake-aware flood bound (`mlbs::core::bounds::FloodBound`)
//! that OPT and G-OPT prune with. On small duty-cycled instances an
//! exhaustive, traced OPT search yields the exact remainder of every state
//! it evaluates; the flood bound at that state must never exceed it. Where
//! every node is always able to send, the flood must collapse to the hop
//! bound.

use mlbs::core::bounds::{remaining_hops_profile, FloodBound};
use mlbs::core::SearchConfig;
use mlbs::prelude::*;
use proptest::prelude::*;

/// Small connected deployments (5–10 nodes) on which exhaustive OPT is
/// cheap.
fn arb_tiny_topo() -> impl Strategy<Value = (Topology, NodeId)> {
    (5usize..11, 0u64..400).prop_map(|(n, seed)| {
        SyntheticDeployment {
            area: Rect::with_size(20.0, 20.0),
            nodes: n,
            radius: 10.0,
            ecc_range: None,
            max_attempts: 10_000,
            hole: None,
        }
        .sample(seed)
    })
}

const RATES: [u32; 3] = [2, 5, 10];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flood_bound_never_exceeds_the_exact_remainder(
        (topo, src) in arb_tiny_topo(),
        rate_idx in 0usize..3,
        wake_seed in 0u64..1000,
    ) {
        let rate = RATES[rate_idx];
        let wake = WindowedRandom::with_windows(topo.len(), rate, wake_seed, 4);
        let out = solve_opt(
            &topo,
            src,
            &wake,
            &SearchConfig {
                exhaustive: true,
                collect_trace: true,
                ..SearchConfig::default()
            },
        );
        prop_assert!(out.exact);
        let mut flood = FloodBound::new();
        let trace = out.trace.expect("trace requested");
        let mut checked = 0;
        for state in &trace.states {
            // Wait rows carry no branch values.
            let Some(best) = state.options.iter().filter_map(|o| o.m_value).min() else {
                continue;
            };
            let rem = best - state.slot + 1;
            let informed = NodeSet::from_indices(topo.len(), state.informed.iter().copied());
            let lb = flood.lower_bound(&topo, &wake, &informed, state.slot, Slot::MAX);
            prop_assert!(
                lb <= rem,
                "rate {}: flood bound {} above the exact remainder {} at slot {} from {:?}",
                rate, lb, rem, state.slot, state.informed
            );
            checked += 1;
        }
        prop_assert!(checked > 0, "the trace holds no evaluated state");
    }

    #[test]
    fn flood_bound_equals_hop_bound_when_always_able_to_send(
        (topo, src) in arb_tiny_topo(),
        mask in 0u64..1024,
        t in 0u64..40,
        wake_seed in 0u64..1000,
    ) {
        let n = topo.len();
        let mut informed = NodeSet::from_indices(n, (0..n).filter(|&i| mask >> i & 1 == 1));
        informed.insert(src.idx());
        let hops = remaining_hops_profile(&topo, &informed).0;
        let mut flood = FloodBound::new();
        prop_assert_eq!(
            flood.lower_bound(&topo, &AlwaysAwake, &informed, t, Slot::MAX),
            hops
        );
        // Rate 1: one window per slot, so every node sends in every slot.
        let wake = WindowedRandom::with_windows(n, 1, wake_seed, 4);
        prop_assert_eq!(flood.lower_bound(&topo, &wake, &informed, t, Slot::MAX), hops);
    }
}
