//! Cross-crate property tests over the substrate layers: coloring
//! validity, enumeration maximality, CWT arithmetic, and boundary
//! detection — all against arbitrary deployments.

use mlbs::interference::{ConflictGraph, ConflictGraphBuilder};
use mlbs::prelude::*;
use proptest::prelude::*;

fn arb_topo() -> impl Strategy<Value = Topology> {
    (30usize..100, 0u64..500).prop_map(|(n, seed)| SyntheticDeployment::paper(n).sample(seed).0)
}

/// SplitMix64 step, the same generator the sweep seed-derivation uses —
/// drives the random walks below deterministically from one proptest seed.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random "mid-broadcast" informed set: everything within `h` hops of a
/// random node.
fn informed_ball(topo: &Topology, center: usize, h: u32) -> NodeSet {
    let c = NodeId((center % topo.len()) as u32);
    let hops = metrics::bfs_hops(topo, c);
    NodeSet::from_indices(topo.len(), (0..topo.len()).filter(|&u| hops[u] <= h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn greedy_coloring_always_satisfies_eq1(topo in arb_topo(), c in 0usize..1000, h in 0u32..3) {
        let informed = informed_ball(&topo, c, h);
        let classes = greedy_coloring(&topo, &informed);
        validate_coloring(&topo, &informed, &classes).unwrap();
        // Every eligible candidate is colored exactly once.
        let colored: usize = classes.iter().map(Vec::len).sum();
        prop_assert_eq!(colored, eligible_senders(&topo, &informed).len());
    }

    #[test]
    fn first_greedy_class_has_most_receivers(topo in arb_topo(), c in 0usize..1000) {
        let informed = informed_ball(&topo, c, 1);
        let classes = greedy_coloring(&topo, &informed);
        if classes.len() >= 2 {
            let uninformed = informed.complement();
            let best_of = |class: &Vec<NodeId>| {
                class
                    .iter()
                    .map(|&u| topo.neighbor_set(u).intersection_len(&uninformed))
                    .max()
                    .unwrap_or(0)
            };
            // Eq. (2): the class labeled first contains the candidate with
            // the globally largest receiver count.
            let first = best_of(&classes[0]);
            for class in &classes[1..] {
                prop_assert!(first >= best_of(class));
            }
        }
    }

    #[test]
    fn cwt_is_within_one_period(topo in arb_topo(), rate in 2u32..30, seed in 0u64..100) {
        let wake = WindowedRandom::new(topo.len(), rate, seed);
        for u in 0..topo.len().min(10) {
            for t in [0u64, 7, 63, 1000] {
                let next = wake.next_send(u, t);
                prop_assert!(next >= t);
                prop_assert!(next - t < 2 * rate as u64, "gap exceeded 2r");
                prop_assert!(wake.can_send(u, next));
            }
        }
    }

    #[test]
    fn edge_nodes_include_the_hull(topo in arb_topo()) {
        let edges = mlbs::topology::boundary::edge_nodes(&topo);
        for i in mlbs::geom::convex_hull(topo.positions()) {
            prop_assert!(
                edges.contains(&NodeId(i as u32)),
                "hull vertex {i} missing from edge set"
            );
        }
    }

    #[test]
    fn emodel_values_are_finite_chain_lengths(topo in arb_topo(), wake_seed in 0u64..1_000) {
        // Synchronous E values are hop counts along quadrant-monotone
        // chains; the strict quadrant order visits each node at most once,
        // so every value is finite and below n.
        let em = EModel::build(&topo, &AlwaysAwake);
        let n = topo.len() as f64;
        for u in topo.nodes() {
            for q in Quadrant::ALL {
                let v = em.value(u, q);
                prop_assert!(v.is_finite());
                prop_assert!((0.0..n).contains(&v), "E({u},{q:?}) = {v} out of range");
            }
        }
        // The message-passing construction reaches the sweep's values bit
        // for bit, with unit and with CWT weights.
        let duty = WindowedRandom::new(topo.len(), 10, wake_seed);
        for (central, (dist, _)) in [
            (em, mlbs::distributed::distributed_emodel(&topo, &AlwaysAwake)),
            (EModel::build(&topo, &duty), mlbs::distributed::distributed_emodel(&topo, &duty)),
        ] {
            for u in topo.nodes() {
                let bits = |t: [f64; 4]| t.map(f64::to_bits);
                prop_assert_eq!(bits(central.tuple(u)), bits(dist[u.idx()]), "tuple of {}", u);
            }
        }
    }

    #[test]
    fn incremental_conflict_graph_is_bit_identical_to_scratch(
        topo in arb_topo(),
        walk_seed in 0u64..10_000,
        steps in 4usize..12,
    ) {
        // Random sequences of uninformed-set shrinks (with occasional
        // grow-backs, as DFS backtracking produces) and candidate swaps:
        // after every transition the incremental builder must agree with a
        // from-scratch `ConflictGraph::build` row for row.
        let n = topo.len();
        let mut rng = walk_seed;
        let mut builder = ConflictGraphBuilder::new();
        let mut uninformed = NodeSet::full(n);
        uninformed.remove(mix(&mut rng) as usize % n);
        let mut candidates: Vec<NodeId> = (0..n)
            .filter(|_| mix(&mut rng).is_multiple_of(4))
            .map(|u| NodeId(u as u32))
            .collect();
        for _ in 0..steps {
            match mix(&mut rng) % 4 {
                // Shrink W̄ by a random coverage-like clump.
                0 | 1 => {
                    let center = mix(&mut rng) as usize % n;
                    uninformed.remove(center);
                    for &v in topo.neighbors(NodeId(center as u32)) {
                        uninformed.remove(v.idx());
                    }
                }
                // Backtrack: a few nodes return to W̄.
                2 => {
                    for _ in 0..(mix(&mut rng) % 4) {
                        uninformed.insert(mix(&mut rng) as usize % n);
                    }
                }
                // Candidate churn: drop some, add some, keep id order.
                _ => {
                    candidates.retain(|_| !mix(&mut rng).is_multiple_of(5));
                    let extra: Vec<NodeId> = (0..n)
                        .filter(|_| mix(&mut rng).is_multiple_of(8))
                        .map(|u| NodeId(u as u32))
                        .collect();
                    candidates.extend(extra);
                    candidates.sort_unstable();
                    candidates.dedup();
                }
            }
            let incremental = builder.update(&topo, &candidates, &uninformed);
            let scratch = ConflictGraph::build(&topo, &candidates, &uninformed);
            prop_assert_eq!(incremental.candidates(), scratch.candidates());
            for i in 0..scratch.len() {
                prop_assert_eq!(
                    incremental.row(i).words(),
                    scratch.row(i).words(),
                    "row {} diverged after a delta update",
                    i
                );
            }
        }
    }

    #[test]
    fn lossy_replay_coverage_monotone_in_loss(topo in arb_topo(), seed in 0u64..50) {
        use mlbs::sim::mean_coverage;
        let src = NodeId(0);
        if mlbs::topology::metrics::eccentricity(&topo, src).is_none() {
            return Ok(());
        }
        let s = schedule_26_approx(&topo, src);
        let lo = mean_coverage(&topo, &s, 0.05, 8, seed);
        let hi = mean_coverage(&topo, &s, 0.5, 8, seed);
        prop_assert!(lo >= hi - 0.05, "coverage should not rise with loss: {lo} vs {hi}");
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }
}
