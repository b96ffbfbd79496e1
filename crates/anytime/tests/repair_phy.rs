//! Repair under physical-layer models: `reschedule` is model-generic.
//! These tests exercise incremental repair under `SinrModel` and
//! `MultiChannel` K=2, asserting repaired schedules verify under the
//! exact model semantics and never lose to a cold greedy
//! re-legalization under the same mask.

use mlbs_core::Schedule;
use proptest::prelude::*;
use wsn_anytime::{reschedule, solve_anytime, AnytimeConfig, Budget, ChurnDelta};
use wsn_dutycycle::AlwaysAwake;
use wsn_phy::{PhyModelSpec, SinrParams};
use wsn_topology::deploy::SyntheticDeployment;
use wsn_topology::{NodeId, Topology};

fn budget(iters: u64) -> AnytimeConfig {
    AnytimeConfig {
        budget: Budget::Iterations(iters),
        ..AnytimeConfig::default()
    }
}

/// Every `stride`-th node except the source — a deterministic churn set.
fn churn_set(topo: &Topology, source: NodeId, stride: usize) -> Vec<NodeId> {
    topo.nodes()
        .filter(|&u| u != source && u.idx() % stride == stride - 1)
        .collect()
}

/// Cold baseline: a greedy masked re-legalization with no warm start (an
/// empty old schedule leaves the repair nothing to reuse).
fn cold_relegalize<M: wsn_phy::ConflictModel>(
    topo: &Topology,
    source: NodeId,
    model: &M,
    delta: &ChurnDelta,
) -> wsn_anytime::RepairOutcome {
    let cfg = budget(0);
    let empty = Schedule {
        source,
        start: cfg.start_from,
        entries: Vec::new(),
        repeats: Vec::new(),
    };
    reschedule(topo, source, &AlwaysAwake, model, &empty, delta, &cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any instance × {SINR, SINR-K2, protocol-K2}: the repaired schedule
    /// verifies over the surviving subgraph under the exact model, and
    /// its latency never exceeds the cold re-legalization's.
    #[test]
    fn repair_verifies_and_never_loses_under_phy_models(
        seed in 0..24u64,
        n in 40usize..100,
        model_ix in 0usize..3,
        stride in 5usize..9,
    ) {
        let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
        let spec = match model_ix {
            0 => PhyModelSpec::sinr(SinrParams::calibrated(topo.radius(), 3.0, 1.5)),
            1 => PhyModelSpec::sinr(SinrParams::calibrated(topo.radius(), 3.0, 1.5))
                .with_channels(2),
            _ => PhyModelSpec::protocol().with_channels(2),
        };
        let model = spec.build(&topo);
        let base = solve_anytime(&topo, src, &AlwaysAwake, &model, &budget(4_000));
        let dead = churn_set(&topo, src, stride);
        prop_assert!(!dead.is_empty(), "n >= 40 guarantees a non-empty churn set");
        let delta = ChurnDelta::deaths(dead);

        let rep = reschedule(&topo, src, &AlwaysAwake, &model, &base.schedule, &delta, &budget(2_000));
        prop_assert!(
            rep.outcome.schedule
                .verify_covering_with_model(&topo, &AlwaysAwake, &model, Some(&rep.mask))
                .is_ok(),
            "{} repair failed verification", spec.label()
        );

        let cold = cold_relegalize(&topo, src, &model, &delta);
        prop_assert!(
            rep.outcome.latency <= cold.outcome.latency,
            "{} repair ({}) lost to cold re-legalization ({})",
            spec.label(), rep.outcome.latency, cold.outcome.latency
        );
    }

    /// Quality-only deltas under SINR: the mask stays empty, every
    /// surviving placement is reused, and the repair still verifies.
    #[test]
    fn quality_only_repair_under_sinr_reuses_everything(
        seed in 0..16u64,
        n in 40usize..80,
    ) {
        let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
        let model = PhyModelSpec::sinr(SinrParams::calibrated(topo.radius(), 3.0, 1.5))
            .with_channels(2)
            .build(&topo);
        let base = solve_anytime(&topo, src, &AlwaysAwake, &model, &budget(3_000));
        let degraded: Vec<_> = topo
            .nodes()
            .flat_map(|u| topo.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
            .step_by(3)
            .map(|(u, v)| (u, v, 0.6))
            .collect();
        prop_assert!(!degraded.is_empty(), "paper densities always have links");
        let delta = ChurnDelta::degradations(degraded);
        let rep = reschedule(&topo, src, &AlwaysAwake, &model, &base.schedule, &delta, &budget(0));
        prop_assert!(rep.mask.is_empty());
        prop_assert_eq!(rep.uncovered.len(), 0);
        prop_assert_eq!(rep.stranded, 0);
        prop_assert!(rep.outcome.schedule
            .verify_with_model(&topo, &AlwaysAwake, &model)
            .is_ok());
        prop_assert!(rep.outcome.latency <= base.latency);
    }
}

/// Pinned instance: repair under SINR + MultiChannel K=2 on the paper's
/// 150-node density, with a ~12% churn, must verify, reuse survivors,
/// and beat-or-match cold.
#[test]
fn pinned_sinr_k2_repair() {
    let (topo, src) = SyntheticDeployment::paper(150).sample(0);
    let model = PhyModelSpec::sinr(SinrParams::calibrated(topo.radius(), 3.0, 1.5))
        .with_channels(2)
        .build(&topo);
    let base = solve_anytime(&topo, src, &AlwaysAwake, &model, &budget(8_000));
    base.schedule
        .verify_with_model(&topo, &AlwaysAwake, &model)
        .unwrap();
    let dead = churn_set(&topo, src, 8);
    assert!(!dead.is_empty());
    let delta = ChurnDelta::deaths(dead);
    let rep = reschedule(
        &topo,
        src,
        &AlwaysAwake,
        &model,
        &base.schedule,
        &delta,
        &budget(4_000),
    );
    rep.outcome
        .schedule
        .verify_covering_with_model(&topo, &AlwaysAwake, &model, Some(&rep.mask))
        .unwrap();
    assert!(rep.reused > 0, "repair must reuse surviving placements");
    let cold = cold_relegalize(&topo, src, &model, &delta);
    assert!(
        rep.outcome.latency <= cold.outcome.latency,
        "repair {} lost to cold {}",
        rep.outcome.latency,
        cold.outcome.latency
    );
}
