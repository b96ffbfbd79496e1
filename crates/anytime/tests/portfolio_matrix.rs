//! Thread-matrix smoke for the parallel scheduling engine (run by CI):
//! portfolios at threads ∈ {1, 2, 4} on a 2k-node instance must return
//! valid schedules that never lose to the serial driver, under all three
//! conflict models — plus warm-start cache and wall-clock budget checks.

use std::time::Instant;
use wsn_anytime::{solve_anytime, AnytimeConfig, Budget, Portfolio, ScheduleCache};
use wsn_dutycycle::AlwaysAwake;
use wsn_phy::{ConflictModel, MultiChannel, ProtocolModel, SinrModel, SinrParams};
use wsn_topology::deploy;

fn config() -> AnytimeConfig {
    AnytimeConfig {
        budget: Budget::Iterations(3_000),
        ..AnytimeConfig::default()
    }
}

fn matrix_case<M: ConflictModel>(
    model_name: &str,
    n: usize,
    make_model: impl Fn(&wsn_topology::Topology) -> M,
) {
    let (topo, src) = deploy::SyntheticDeployment::paper(n).sample(42);
    let model = &make_model(&topo);
    let cfg = config();
    let serial = solve_anytime(&topo, src, &AlwaysAwake, model, &cfg);
    serial
        .schedule
        .verify_with_model(&topo, &AlwaysAwake, model)
        .unwrap();
    for threads in [1usize, 2, 4] {
        let port = Portfolio::with_config(cfg.clone(), threads);
        let out = port.solve(&topo, src, &AlwaysAwake, model, None);
        out.schedule
            .verify_with_model(&topo, &AlwaysAwake, model)
            .unwrap();
        assert!(
            out.latency <= serial.latency,
            "{model_name} threads={threads}: portfolio latency {} beats serial {}? no",
            out.latency,
            serial.latency
        );
        if threads == 1 {
            assert_eq!(out.latency, serial.latency, "{model_name}: threads=1 pin");
        }
    }
}

#[test]
fn protocol_matrix() {
    matrix_case("protocol", 2_000, |_| ProtocolModel);
}

#[test]
fn sinr_matrix() {
    // SINR verification is the expensive leg; a smaller instance keeps the
    // smoke within CI budgets while still exercising the same code paths.
    matrix_case("sinr", 600, |topo| {
        SinrModel::new(SinrParams::calibrated(topo.radius(), 3.0, 1.5), topo)
    });
}

#[test]
fn multichannel_matrix() {
    matrix_case("multichannel", 2_000, |_| {
        MultiChannel::new(ProtocolModel, 3)
    });
}

#[test]
fn iteration_portfolio_reproduces_bit_identically() {
    let (topo, src) = deploy::SyntheticDeployment::paper(400).sample(7);
    let cfg = config();
    for threads in [2usize, 4] {
        let port = Portfolio::with_config(cfg.clone(), threads);
        let a = port.solve(&topo, src, &AlwaysAwake, &ProtocolModel, None);
        let b = port.solve(&topo, src, &AlwaysAwake, &ProtocolModel, None);
        assert_eq!(a.latency, b.latency, "threads {threads}");
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.restarts, b.restarts);
        assert_eq!(a.schedule.entries.len(), b.schedule.entries.len());
        for (ea, eb) in a.schedule.entries.iter().zip(&b.schedule.entries) {
            assert_eq!(ea.slot, eb.slot);
            assert_eq!(ea.senders, eb.senders);
        }
    }
}

#[test]
fn wall_clock_portfolio_produces_valid_schedules() {
    let (topo, src) = deploy::SyntheticDeployment::paper(800).sample(3);
    let cfg = AnytimeConfig {
        budget: Budget::WallClockMs(150),
        ..AnytimeConfig::default()
    };
    let port = Portfolio::with_config(cfg, 3);
    let out = port.solve(&topo, src, &AlwaysAwake, &ProtocolModel, None);
    out.schedule.verify(&topo, &AlwaysAwake).unwrap();
    assert_eq!(out.latency, out.schedule.latency());
    assert_eq!(out.trace.last().unwrap().latency, out.latency);
}

#[test]
fn wall_clock_budget_is_not_overshot() {
    // The satellite fix: deadline checks now poll every 16 moves inside
    // pass loops and an EWMA guard declines passes that cannot fit, so
    // billed time stays within a small tolerance of the budget. The
    // tolerance absorbs pass-setup granularity on slow CI machines; the
    // pre-fix failure mode was unbounded (a whole pass past the deadline).
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
    let cfg = config();
    let mut cache = ScheduleCache::new();

    let cold = Portfolio::with_config(cfg, 1).solve(
        &topo,
        src,
        &AlwaysAwake,
        &ProtocolModel,
        Some(&mut cache),
    );
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.misses(), 1);

    // Re-solve the held instance with a zero-iteration budget: the warm
    // hints alone must reproduce the previous incumbent's latency.
    let warm_cfg = AnytimeConfig {
        budget: Budget::Iterations(0),
        ..AnytimeConfig::default()
    };
    let warm = Portfolio::with_config(warm_cfg, 1).solve(
        &topo,
        src,
        &AlwaysAwake,
        &ProtocolModel,
        Some(&mut cache),
    );
    assert_eq!(cache.hits(), 1);
    assert!(
        warm.latency <= cold.latency,
        "warm start lost ground: {} vs {}",
        warm.latency,
        cold.latency
    );
    warm.schedule.verify(&topo, &AlwaysAwake).unwrap();

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
    Portfolio::with_config(worse_budget, 1).solve(
        &topo,
        src,
        &AlwaysAwake,
        &ProtocolModel,
        Some(&mut cache),
    );
    let held = cache.lookup(&topo, &ProtocolModel, src).unwrap();
    assert!(held.latency() <= cold.latency);
}

#[test]
fn portfolio_cache_roundtrip() {
    let (topo, src) = deploy::SyntheticDeployment::paper(500).sample(21);
    let mut cache = ScheduleCache::new();
    let port = Portfolio::with_config(config(), 2);
    let cold = port.solve(&topo, src, &AlwaysAwake, &ProtocolModel, Some(&mut cache));
    let warm = port.solve(&topo, src, &AlwaysAwake, &ProtocolModel, Some(&mut cache));
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.misses(), 1);
    assert!(warm.latency <= cold.latency);
    warm.schedule.verify(&topo, &AlwaysAwake).unwrap();
}
