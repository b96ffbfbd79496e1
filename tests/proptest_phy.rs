//! Cross-crate property tests for the pluggable conflict-model layer
//! (`wsn-phy`): the degeneracy and equivalence guarantees the ISSUE-4
//! acceptance criteria pin.
//!
//! * **SINR ≡ protocol under threshold-degenerate parameters.** With the
//!   interference cutoff at the UDG radius, `β` above the worst in-range
//!   signal-to-interference ratio and the reception range calibrated to
//!   the radius (`SinrParams::degenerate`), the pairwise SINR conflict
//!   graph must reproduce the protocol conflict graph *edge for edge* on
//!   seeded deployments — through the one-shot builds and through the
//!   incremental builder alike.
//! * **K = 1 multi-channel ≡ single-channel, bit for bit.** The
//!   `MultiChannel` wrapper at `K = 1` must leave every schedule of every
//!   scheduler identical to the unwrapped model's (same slots, same
//!   senders, empty channel lists) — the channel relaxation is provably
//!   dormant, not merely harmless.

use mlbs::interference::{ConflictGraph, ConflictGraphBuilder};
use mlbs::phy::{BaseModel, ConflictModel as _};
use mlbs::prelude::*;
use proptest::prelude::*;

fn arb_topo() -> impl Strategy<Value = (Topology, NodeId)> {
    (30usize..100, 0u64..500).prop_map(|(n, seed)| SyntheticDeployment::paper(n).sample(seed))
}

/// A random "mid-broadcast" informed set: everything within `h` hops of a
/// random node.
fn informed_ball(topo: &Topology, center: usize, h: u32) -> NodeSet {
    let c = NodeId((center % topo.len()) as u32);
    let hops = metrics::bfs_hops(topo, c);
    NodeSet::from_indices(topo.len(), (0..topo.len()).filter(|&u| hops[u] <= h))
}

fn assert_graphs_equal(a: &ConflictGraph, b: &ConflictGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.candidates(), b.candidates());
    for i in 0..a.len() {
        prop_assert_eq!(a.row(i), b.row(i), "row {} differs", i);
    }
    Ok(())
}

fn assert_schedules_identical(
    a: &Schedule,
    b: &Schedule,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.start, b.start, "{}: start drifted", label);
    prop_assert_eq!(a.entries.len(), b.entries.len(), "{}: entry count", label);
    for (ea, eb) in a.entries.iter().zip(&b.entries) {
        prop_assert_eq!(ea, eb, "{}: entry drifted", label);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Degenerate SINR reproduces the protocol conflict graph edge for
    /// edge — one-shot builds, the incremental builder over a shrinking
    /// walk, and the reception rule.
    #[test]
    fn degenerate_sinr_matches_protocol_edge_for_edge(
        (topo, src) in arb_topo(),
        c in 0usize..1000,
        alpha in 3.0f64..6.0,
    ) {
        let sinr = SinrModel::new(SinrParams::degenerate(&topo, alpha), &topo);
        let proto = ProtocolModel;
        let informed = informed_ball(&topo, c, 2);
        if informed.is_full() {
            return Ok(());
        }
        let unf = informed.complement();
        let cands = eligible_senders(&topo, &informed);

        // One-shot graphs agree…
        let gp = ConflictGraph::build(&topo, &cands, &unf);
        let gs = ConflictGraph::build_with_model(&sinr, &topo, &cands, &unf);
        assert_graphs_equal(&gp, &gs)?;

        // …and so do incrementally-maintained graphs along a shrink walk.
        let mut bp = ConflictGraphBuilder::new();
        let mut bs = ConflictGraphBuilder::new();
        let mut walk_unf = unf.clone();
        let mut step = 0usize;
        for w in unf.iter() {
            walk_unf.remove(w);
            let a = bp.update_with(&proto, &topo, &cands, &walk_unf).clone();
            let b = bs.update_with(&sinr, &topo, &cands, &walk_unf);
            assert_graphs_equal(&a, b)?;
            step += 1;
            if step >= 12 {
                break;
            }
        }

        // Reception agrees on a concurrent-sender slot.
        let senders = NodeSet::from_indices(
            topo.len(),
            cands.iter().take(3).map(|u| u.idx()),
        );
        prop_assert_eq!(
            proto.resolve_receptions(&topo, &senders, &unf),
            sinr.resolve_receptions(&topo, &senders, &unf)
        );

        // And a whole G-OPT search under degenerate SINR lands on the
        // protocol-model schedule exactly.
        let cfg = SearchConfig::default();
        let mut state = BroadcastState::new();
        let a = solve_gopt_model(&topo, src, &AlwaysAwake, &proto, &cfg, &mut state);
        let b = solve_gopt_model(&topo, src, &AlwaysAwake, &sinr, &cfg, &mut state);
        prop_assert_eq!(a.latency, b.latency, "degenerate SINR changed G-OPT latency");
        assert_schedules_identical(&a.schedule, &b.schedule, "gopt-degenerate")?;
    }

    /// `MultiChannel(inner, 1)` is bit-identical to the bare inner model
    /// across the pipeline and both searches, sync and duty regimes.
    #[test]
    fn one_channel_wrapper_is_bit_identical(
        (topo, src) in arb_topo(),
        rate in prop::sample::select(vec![1u32, 5, 10]),
        wake_seed in 0u64..100,
    ) {
        let single = ProtocolModel;
        let wrapped = MultiChannel::new(ProtocolModel, 1);
        prop_assert_eq!(wrapped.channels(), 1);
        let wake = WindowedRandom::new(topo.len(), rate, wake_seed);
        let cfg = SearchConfig::default();
        let mut state = BroadcastState::new();

        let a = run_pipeline_model(
            &topo, src, &wake, &single, &mut MaxReceiversSelector,
            &PipelineConfig::default(), &mut state,
        );
        let b = run_pipeline_model(
            &topo, src, &wake, &wrapped, &mut MaxReceiversSelector,
            &PipelineConfig::default(), &mut state,
        );
        assert_schedules_identical(&a, &b, "pipeline")?;
        prop_assert!(b.entries.iter().all(|e| e.channels.is_empty()));

        let a = solve_gopt_model(&topo, src, &wake, &single, &cfg, &mut state);
        let b = solve_gopt_model(&topo, src, &wake, &wrapped, &cfg, &mut state);
        prop_assert_eq!(a.latency, b.latency);
        prop_assert_eq!(a.exact, b.exact);
        assert_schedules_identical(&a.schedule, &b.schedule, "gopt")?;

        let a = solve_opt_model(&topo, src, &wake, &single, &cfg, &mut state);
        let b = solve_opt_model(&topo, src, &wake, &wrapped, &cfg, &mut state);
        prop_assert_eq!(a.latency, b.latency);
        prop_assert_eq!(a.exact, b.exact);
        assert_schedules_identical(&a.schedule, &b.schedule, "opt")?;
    }

    /// Schedules produced under any spec of the model axis verify under
    /// their own model, and multi-channel latency never loses to the
    /// single-channel latency of the same base model when both searches
    /// stay exact.
    #[test]
    fn model_axis_schedules_verify(
        (topo, src) in arb_topo(),
        k in prop::sample::select(vec![2u32, 3, 4]),
    ) {
        let cfg = SearchConfig::default();
        let mut state = BroadcastState::new();
        for base in [
            PhyModelSpec::protocol(),
            PhyModelSpec {
                base: BaseModel::SinrDegenerate { alpha: 4.0 },
                channels: 1,
            },
        ] {
            let single = base.build(&topo);
            let multi = base.with_channels(k).build(&topo);
            let a = solve_opt_model(&topo, src, &AlwaysAwake, &single, &cfg, &mut state);
            let b = solve_opt_model(&topo, src, &AlwaysAwake, &multi, &cfg, &mut state);
            a.schedule.verify_with_model(&topo, &AlwaysAwake, &single).unwrap();
            b.schedule.verify_with_model(&topo, &AlwaysAwake, &multi).unwrap();
            if a.exact && b.exact {
                prop_assert!(
                    b.latency <= a.latency,
                    "K={} lost to single-channel under {:?}", k, base.label()
                );
            }
        }
    }
}

/// Calibrated SINR is a different conflict regime, not a relabelled
/// protocol model: on a 300-node paper deployment (seed 2), capture
/// relaxes at least one protocol conflict among the senders two hops out
/// once the first three-hop node is informed.
#[test]
fn calibrated_sinr_relaxes_a_protocol_conflict() {
    let (topo, src) = SyntheticDeployment::paper(300).sample(2);
    let n = topo.len();
    let hops = metrics::bfs_hops(&topo, src);
    let informed = NodeSet::from_indices(n, (0..n).filter(|&u| hops[u] <= 2));
    let cands = eligible_senders(&topo, &informed);
    let mut unf = informed.complement();
    unf.remove(
        (0..n)
            .find(|&u| hops[u] == 3)
            .expect("a node three hops out"),
    );
    let sinr = SinrModel::new(SinrParams::calibrated(topo.radius(), 3.0, 1.5), &topo);
    let gp = ConflictGraph::build_with_model(&ProtocolModel, &topo, &cands, &unf);
    let gs = ConflictGraph::build_with_model(&sinr, &topo, &cands, &unf);
    assert!(
        (0..gp.len()).any(|i| gp.row(i) != gs.row(i)),
        "calibrated SINR should relax some protocol conflict on a 300-node instance"
    );
}
