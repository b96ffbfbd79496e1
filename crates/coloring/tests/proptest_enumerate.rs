//! Property tests: the covering cut of `maximal_conflict_free_sets` drops
//! exactly the sets that miss the target, and its visit budget reports
//! truncation.

use proptest::prelude::*;
use wsn_bitset::NodeSet;
use wsn_coloring::{eligible_senders, maximal_conflict_free_sets, HitMasks};
use wsn_geom::Point;
use wsn_interference::ConflictGraph;
use wsn_topology::Topology;

/// The conflict graph of a random unit-disk network: `informed` holds one
/// bit per node, and the candidates are the informed nodes with an
/// uninformed neighbour.
fn conflict_graph(points: &[(f64, f64)], informed: u64) -> ConflictGraph {
    let n = points.len();
    let topo = Topology::unit_disk(points.iter().map(|&(x, y)| Point::new(x, y)).collect(), 1.5);
    let w = NodeSet::from_indices(n, (0..n).filter(|&i| informed >> i & 1 == 1));
    ConflictGraph::build(&topo, &eligible_senders(&topo, &w), &w.complement())
}

fn covers(masks: &[u64], target: u64, set: &[usize]) -> bool {
    set.iter().fold(0, |m, &i| m | masks[i]) & target == target
}

fn arb_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..4.0, 0.0f64..4.0), 4..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hitting_enumeration_is_the_filtered_enumeration(
        points in arb_points(),
        informed in 1u64..(1 << 24),
        masks in prop::collection::vec(0u64..16, 24..25),
        target in 0u64..16,
    ) {
        let cg = conflict_graph(&points, informed);
        let all = maximal_conflict_free_sets(&cg, usize::MAX, None);
        prop_assert!(!all.truncated);
        let hit = HitMasks { masks: &masks, target };
        let got = maximal_conflict_free_sets(&cg, usize::MAX, Some(hit));
        prop_assert!(!got.truncated);
        let want: Vec<Vec<usize>> = all
            .sets
            .into_iter()
            .filter(|set| covers(&masks, target, set))
            .collect();
        prop_assert_eq!(got.sets, want);
    }

    #[test]
    fn exhausted_visit_budget_reports_truncation(
        points in arb_points(),
        informed in 1u64..(1 << 24),
        masks in prop::collection::vec(0u64..16, 24..25),
        target in 0u64..16,
    ) {
        let cg = conflict_graph(&points, informed);
        let hit = HitMasks { masks: &masks, target };
        let full = maximal_conflict_free_sets(&cg, usize::MAX, Some(hit)).sets;
        // Every cap yields a prefix of the full enumeration, and a cap
        // that stops it short says so.
        for cap in 0..=full.len() + 2 {
            let out = maximal_conflict_free_sets(&cg, cap, Some(hit));
            prop_assert!(out.sets.len() <= cap);
            prop_assert_eq!(&out.sets[..], &full[..out.sets.len()]);
            if out.sets.len() < full.len() {
                prop_assert!(out.truncated, "cap {} lost sets without truncating", cap);
            }
            if !out.truncated {
                prop_assert_eq!(&out.sets, &full);
            }
        }
    }
}
