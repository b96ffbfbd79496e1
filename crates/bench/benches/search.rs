//! Duty-regime search benchmarks: the phase-folded OPT/G-OPT searches
//! against the PR 2 baseline configuration on seeded paper instances.
//!
//! In `--test` mode (the CI smoke) every routine runs once and *asserts
//! the new `SearchStats` counters are actually populated* — a missing
//! counter (folder never engaged, dominance store dead, ordering hook
//! bypassed) panics and fails CI rather than silently benching nothing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlbs_core::{solve_gopt_with, solve_opt_with, BranchOrder, BroadcastState, SearchConfig};
use std::hint::black_box;
use wsn_bench::AdaptiveBudget;
use wsn_dutycycle::WindowedRandom;
use wsn_sim::Regime;
use wsn_topology::deploy::SyntheticDeployment;

/// The PR 2 duty-regime constants, kept as the comparison baseline.
fn legacy_duty() -> SearchConfig {
    SearchConfig {
        branch_cap: 24,
        max_states: 400_000,
        phase_fold: false,
        dominance: false,
        ..SearchConfig::default()
    }
}

fn bench_duty_opt(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_duty_opt");
    group.sample_size(10);
    // (nodes, deployment seed, rate): one easy r=50 pin (the phase axis),
    // one hard r=10 pin (wide awake-candidate branching).
    for (nodes, seed, rate) in [(100usize, 0u64, 50u32), (200, 2, 10)] {
        let (topo, src) = SyntheticDeployment::paper(nodes).sample(seed);
        let wake = WindowedRandom::new(topo.len(), rate, seed ^ 0x57a6_6e8d);
        let adaptive = AdaptiveBudget::default().config_for(Regime::Duty { rate }, nodes);
        let legacy = legacy_duty();
        group.bench_with_input(
            BenchmarkId::new(format!("baseline_r{rate}"), nodes),
            &nodes,
            |b, _| {
                let mut substrate = BroadcastState::new();
                b.iter(|| {
                    let out = solve_opt_with(black_box(&topo), src, &wake, &legacy, &mut substrate);
                    assert!(out.latency >= 1, "search produced no schedule");
                    out.latency
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("folded_r{rate}"), nodes),
            &nodes,
            |b, _| {
                let mut substrate = BroadcastState::new();
                b.iter(|| {
                    let out =
                        solve_opt_with(black_box(&topo), src, &wake, &adaptive, &mut substrate);
                    // The CI smoke contract: the search counters must be
                    // populated on the duty pins.
                    assert!(
                        out.stats.phase_classes > 0,
                        "phase folder never engaged on a duty search"
                    );
                    assert!(out.stats.memo_entries > 0, "memo_entries missing");
                    assert!(
                        adaptive.dominance
                            && adaptive.branch_order == BranchOrder::FrontierWeighted,
                        "adaptive duty config lost its search features"
                    );
                    out.latency
                })
            },
        );
    }
    group.finish();
}

fn bench_duty_gopt(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_duty_gopt");
    group.sample_size(10);
    let (topo, src) = SyntheticDeployment::paper(200).sample(2);
    let wake = WindowedRandom::new(topo.len(), 10, 2 ^ 0x57a6_6e8d);
    let adaptive = AdaptiveBudget::default().config_for(Regime::Duty { rate: 10 }, 200);
    for (label, cfg) in [("baseline", legacy_duty()), ("folded", adaptive)] {
        group.bench_function(BenchmarkId::new(label, 200), |b| {
            let mut substrate = BroadcastState::new();
            b.iter(|| {
                let out = solve_gopt_with(black_box(&topo), src, &wake, &cfg, &mut substrate);
                assert!(out.exact, "G-OPT should stay exact on this pin");
                out.latency
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_duty_opt, bench_duty_gopt);
criterion_main!(benches);
