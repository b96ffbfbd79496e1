//! Soundness of the wake-aware flood bound (`mlbs::core::bounds::FloodBound`)
//! that OPT and G-OPT prune with. On small duty-cycled instances an
//! exhaustive, traced OPT search yields the exact remainder of every state
//! it evaluates; the flood bound at that state must never exceed it. Where
//! every node is always able to send, the flood must collapse to the hop
//! bound.
//!
//! The hop bound itself (`remaining_hops_profile`, a word-parallel BFS over
//! the neighbour masks) must return exactly the profile of the queue BFS
//! `metrics::bfs_hops_from_set`, and its maximum over the uninformed nodes.
//!
//! OPT's `exact` flag rests on these bounds (a result that meets the root
//! bound is certified whatever the beam did) and on the lazy
//! complete-enumeration pass. A beam of two sets per state truncates on
//! most states, so it drives both; every result it flags exact must equal
//! exhaustive OPT, and no result may beat exhaustive OPT. Half the cases
//! starve the search of states, so that only the root bound can certify.

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

/// Connected deployments of 20–40 nodes, dense enough that states have
/// several maximal sender sets, small enough for exhaustive OPT.
fn arb_small_topo() -> impl Strategy<Value = (Topology, NodeId)> {
    (20usize..41, 0u64..400).prop_map(|(n, seed)| {
        SyntheticDeployment {
            area: Rect::with_size(35.0, 35.0),
            nodes: n,
            radius: 10.0,
            ecc_range: None,
            max_attempts: 10_000,
            hole: None,
        }
        .sample(seed)
    })
}

/// Connected deployments of 60–199 nodes on the paper's area, so the
/// neighbour masks span one to four words.
fn arb_paper_topo() -> impl Strategy<Value = Topology> {
    (60usize..200, 0u64..400).prop_map(|(n, seed)| {
        SyntheticDeployment {
            ecc_range: None,
            ..SyntheticDeployment::paper(n)
        }
        .sample(seed)
        .0
    })
}

/// SplitMix64 step, to draw informed sets from one proptest seed.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A non-empty informed set over `n` nodes: a singleton (`mode` 0), all
/// but one to three nodes (`mode` 1), or each node with one random
/// probability (`mode` 2).
fn informed_set(n: usize, mode: usize, mut seed: u64) -> NodeSet {
    let mut w = match mode {
        0 => NodeSet::new(n),
        1 => {
            let mut w = NodeSet::full(n);
            for _ in 0..=splitmix(&mut seed) % 3 {
                w.remove((splitmix(&mut seed) % n as u64) as usize);
            }
            w
        }
        _ => {
            let p = splitmix(&mut seed) % 101;
            NodeSet::from_indices(n, (0..n).filter(|_| splitmix(&mut seed) % 100 < p))
        }
    };
    w.insert((splitmix(&mut seed) % n as u64) as usize);
    w
}

const RATES: [u32; 3] = [2, 5, 10];

/// Runs OPT with a two-set beam and exhaustive OPT on one instance: the
/// beam never beats the exhaustive optimum, and matches it when flagged
/// exact. `starve` caps the beam at a third of the states exhaustive OPT
/// evaluated.
fn beam_against_exhaustive<S: WakeSchedule>(
    topo: &Topology,
    src: NodeId,
    wake: &S,
    starve: bool,
    regime: &str,
) -> Result<(), TestCaseError> {
    let reference = solve_opt(
        topo,
        src,
        wake,
        &SearchConfig {
            exhaustive: true,
            branch_cap: usize::MAX,
            ..SearchConfig::default()
        },
    );
    prop_assert!(reference.exact && reference.stats.truncated_enumerations == 0);
    let beam = solve_opt(
        topo,
        src,
        wake,
        &SearchConfig {
            branch_cap: 2,
            max_states: if starve {
                reference.stats.states / 3
            } else {
                SearchConfig::default().max_states
            },
            ..SearchConfig::default()
        },
    );
    beam.schedule.verify(topo, wake).unwrap();
    prop_assert!(
        beam.latency >= reference.latency,
        "{}: beam latency {} below exhaustive OPT {}",
        regime,
        beam.latency,
        reference.latency
    );
    if beam.exact {
        prop_assert_eq!(
            beam.latency,
            reference.latency,
            "{}: flagged exact but exhaustive OPT is shorter",
            regime
        );
    }
    Ok(())
}

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
    fn exact_flag_is_a_proof(
        (topo, src) in arb_small_topo(),
        regime_idx in 0usize..4,
        wake_seed in 0u64..1000,
        starve in 0usize..2,
    ) {
        // Regime 0 is synchronous, 1..=3 are the duty rates.
        let starve = starve == 1;
        if regime_idx == 0 {
            beam_against_exhaustive(&topo, src, &AlwaysAwake, starve, "sync")?;
        } else {
            let rate = RATES[regime_idx - 1];
            let wake = WindowedRandom::with_windows(topo.len(), rate, wake_seed, 4);
            beam_against_exhaustive(&topo, src, &wake, starve, &format!("rate {rate}"))?;
        }
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

    #[test]
    fn hop_profile_matches_the_queue_bfs(
        topo in arb_paper_topo(),
        mode in 0usize..3,
        set_seed in 0u64..1_000_000,
    ) {
        let informed = informed_set(topo.len(), mode, set_seed);
        let oracle = metrics::bfs_hops_from_set(&topo, &informed);
        let far = (0..topo.len())
            .filter(|&u| !informed.contains(u))
            .map(|u| oracle[u])
            .max()
            .unwrap_or(0);
        let (lb, dist) = remaining_hops_profile(&topo, &informed);
        prop_assert_eq!(lb, far as Slot);
        prop_assert_eq!(dist, oracle);
    }
}
