//! Property test: the protocol model's reception sweep agrees with a
//! per-receiver hearing counter on random sender and uninformed sets.

use proptest::prelude::*;
use wsn_bitset::NodeSet;
use wsn_geom::Point;
use wsn_phy::{ConflictModel, ProtocolModel};
use wsn_topology::{NodeId, Topology};

/// A splitmix64 step: an independent pseudo-random word per `(seed, i)`.
fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The nodes whose hash falls below `pct` percent.
fn random_set(n: usize, seed: u64, pct: u64) -> NodeSet {
    NodeSet::from_indices(n, (0..n).filter(|&i| mix(seed, i as u64) % 100 < pct))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn protocol_reception_matches_a_hearing_counter(
        seed in 0..1_000u64,
        n in 1usize..300,
        side in 1..40u64,
        send_pct in 0..100u64,
        unf_pct in 0..101u64,
    ) {
        // Uniform points in a `side × side` square, unit radius: dense at
        // small sides, fragmented at large ones.
        let coord = |i: u64| (mix(seed, i) % (side * 1_000)) as f64 / 1_000.0;
        let points = (0..n as u64)
            .map(|i| Point::new(coord(2 * i), coord(2 * i + 1)))
            .collect();
        let topo = Topology::unit_disk(points, 1.0);
        let senders = random_set(n, seed ^ 0x5e4d, send_pct);
        let uninformed = random_set(n, seed ^ 0x0f0f, unf_pct);
        let out = ProtocolModel.resolve_receptions(&topo, &senders, &uninformed);

        let mut heard = vec![0u32; n];
        for s in senders.iter() {
            for &w in topo.neighbors(NodeId(s as u32)) {
                heard[w.idx()] += 1;
            }
        }
        for (w, &count) in heard.iter().enumerate() {
            let open = uninformed.contains(w);
            prop_assert_eq!(out.received.contains(w), open && count == 1, "received {}", w);
            prop_assert_eq!(out.collided.contains(w), open && count >= 2, "collided {}", w);
        }
    }
}
