//! Warm-start cache and wall-clock budget checks for the anytime entry
//! points (run by CI in release mode, where wall-clock chains are
//! meaningful).

use std::time::Instant;
use wsn_anytime::{solve_anytime, solve_anytime_cached, AnytimeConfig, Budget, ScheduleCache};
use wsn_dutycycle::AlwaysAwake;
use wsn_phy::ProtocolModel;
use wsn_topology::deploy;

fn config() -> AnytimeConfig {
    AnytimeConfig {
        budget: Budget::Iterations(3_000),
        ..AnytimeConfig::default()
    }
}

#[test]
fn wall_clock_budget_is_not_overshot() {
    // Deadline checks poll every 16 moves inside pass loops and an EWMA
    // guard declines passes that cannot fit, so billed time stays within a
    // small tolerance of the budget. The tolerance absorbs pass-setup
    // granularity on slow CI machines.
    let (topo, src) = deploy::SyntheticDeployment::paper(2_000).sample(9);
    let budget_ms = 300u64;
    let cfg = AnytimeConfig {
        budget: Budget::WallClockMs(budget_ms),
        ..AnytimeConfig::default()
    };
    let started = Instant::now();
    let out = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
    let elapsed = started.elapsed().as_millis() as u64;
    out.schedule.verify(&topo, &AlwaysAwake).unwrap();
    assert!(
        elapsed <= budget_ms + 150,
        "billed {elapsed} ms against a {budget_ms} ms budget"
    );
}

#[test]
fn warm_cache_reaches_previous_incumbent_fast() {
    let (topo, src) = deploy::SyntheticDeployment::paper(1_500).sample(13);
    let mut cache = ScheduleCache::new();

    let cold = solve_anytime_cached(
        &mut cache,
        &topo,
        src,
        &AlwaysAwake,
        &ProtocolModel,
        &config(),
    );
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.misses(), 1);

    // Re-solve the held instance with a zero-iteration budget: the warm
    // hints alone must reproduce the previous incumbent's latency.
    let zero = AnytimeConfig {
        budget: Budget::Iterations(0),
        ..AnytimeConfig::default()
    };
    let warm = solve_anytime_cached(&mut cache, &topo, src, &AlwaysAwake, &ProtocolModel, &zero);
    assert_eq!(cache.hits(), 1);
    assert!(
        warm.latency <= cold.latency,
        "warm start lost ground: {} vs {}",
        warm.latency,
        cold.latency
    );
    warm.schedule.verify(&topo, &AlwaysAwake).unwrap();

    // A warm solve with a search budget hits too, and searches on from the
    // previous incumbent instead of losing ground.
    let searched = solve_anytime_cached(
        &mut cache,
        &topo,
        src,
        &AlwaysAwake,
        &ProtocolModel,
        &config(),
    );
    assert_eq!((cache.misses(), cache.hits()), (1, 2));
    assert!(searched.latency <= cold.latency);
    searched.schedule.verify(&topo, &AlwaysAwake).unwrap();

    // A different source key misses.
    let other = wsn_topology::NodeId(if src.0 == 0 { 1 } else { 0 });
    let mut probe_cache = cache.clone();
    assert!(probe_cache.lookup(&topo, &ProtocolModel, other).is_none());

    // The cache keeps the better schedule on observe.
    let worse_budget = AnytimeConfig {
        budget: Budget::Iterations(0),
        seed: 0xDEAD,
        ..AnytimeConfig::default()
    };
    solve_anytime_cached(
        &mut cache,
        &topo,
        src,
        &AlwaysAwake,
        &ProtocolModel,
        &worse_budget,
    );
    let held = cache.lookup(&topo, &ProtocolModel, src).unwrap();
    assert!(held.latency() <= cold.latency);
}
