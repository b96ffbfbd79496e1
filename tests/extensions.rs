//! Integration tests for the extension layers: localized scheduling,
//! distributed E-construction and the broadcast-storm reference — the
//! pieces beyond the paper's §V evaluation.

use mlbs::prelude::*;

#[test]
fn localized_protocol_reproduces_fig1_optimum() {
    let f = fixtures::fig1();
    let em = EModel::build(&f.topo, &AlwaysAwake);
    let out = localized_broadcast(&f.topo, f.source, &AlwaysAwake, &em, 1);
    out.schedule.verify(&f.topo, &AlwaysAwake).unwrap();
    assert_eq!(out.schedule.latency(), 3, "Table III optimum, locally");
    // The first contended election is the {0} vs {1} vs {2} conflict.
    assert!(out.stats.deferrals >= 2);
}

#[test]
fn localized_runs_through_algorithm_registry() {
    let (topo, src) = SyntheticDeployment::paper(100).sample(17);
    let cfg = SearchConfig::default();
    let local = run_instance(&topo, src, Regime::Sync, Algorithm::Localized, 0, &cfg);
    let gopt = run_instance(&topo, src, Regime::Sync, Algorithm::GOpt, 0, &cfg);
    let layered = run_instance(&topo, src, Regime::Sync, Algorithm::Layered, 0, &cfg);
    assert!(local.latency >= gopt.latency, "localized cannot beat G-OPT");
    assert!(
        local.latency <= layered.latency,
        "locality should still beat the barrier here: {} vs {}",
        local.latency,
        layered.latency
    );
}

#[test]
fn distributed_econstruction_agrees_with_centralized() {
    let (topo, _) = SyntheticDeployment::paper(150).sample(23);
    assert!(mlbs::distributed::matches_centralized(&topo, &AlwaysAwake));
    let wake = WindowedRandom::new(topo.len(), 10, 3);
    assert!(mlbs::distributed::matches_centralized(&topo, &wake));
}

#[test]
fn theorem3_protocol_messages_are_constant_per_node() {
    let mut per_node = Vec::new();
    for n in [80usize, 160, 300] {
        let (topo, _) = SyntheticDeployment::paper(n).sample(2);
        let (_, stats) = distributed_emodel(&topo, &AlwaysAwake);
        per_node.push(stats.announcements_per_node(topo.len()));
    }
    for &p in &per_node {
        assert!(p <= 6.0, "announcements per node {p:.2} not O(1)-ish");
    }
    // No systematic growth with n.
    assert!(per_node[2] <= per_node[0] * 2.0);
}

#[test]
fn broadcast_storm_reproduces_reference_17() {
    // Unscheduled flooding on a dense instance loses coverage to
    // collisions — the phenomenon of the paper's reference [17] that
    // motivates conflict-aware scheduling in the first place.
    let (topo, src) = SyntheticDeployment::paper(250).sample(6);
    let storm = flood_once(&topo, src, &AlwaysAwake, 1, 2_000);
    assert!(storm.collisions > 0);
    assert!(storm.coverage(topo.len()) < 1.0);

    // The scheduled pipeline on the very same instance covers everyone,
    // with zero collisions by construction (the verifier checks).
    let em = EModel::build(&topo, &AlwaysAwake);
    let sched = run_pipeline(
        &topo,
        src,
        &AlwaysAwake,
        &mut EModelSelector::new(&em),
        &PipelineConfig::default(),
    );
    sched.verify(&topo, &AlwaysAwake).unwrap();
}

#[test]
fn pipeline_to_barrier_latency_ratio_stays_below_0_7_across_rates() {
    // Lighter duty cycles broadcast slower; the E-model pipeline keeps its
    // latency well below the layered baseline's at every rate.
    let (topo, src) = SyntheticDeployment::paper(120).sample(8);
    for rate in [5u32, 20, 50] {
        let wake = WindowedRandom::new(topo.len(), rate, 1);
        let em = EModel::build(&topo, &wake);
        let fast = run_pipeline(
            &topo,
            src,
            &wake,
            &mut EModelSelector::new(&em),
            &PipelineConfig::default(),
        );
        let slow = schedule_17_approx(&topo, src, &wake, 1);
        fast.verify(&topo, &wake).unwrap();
        slow.verify(&topo, &wake).unwrap();
        let ratio = fast.latency() as f64 / slow.latency() as f64;
        assert!(ratio < 0.7, "pipeline should stay well below the barrier");
    }
}
