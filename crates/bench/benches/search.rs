//! Exact-search benchmarks: OPT and G-OPT under the one
//! [`AdaptiveBudget`] configuration, on seeded duty pins and on the
//! paper grid's heaviest instance in both regimes.
//!
//! In `--test` mode (the CI smoke) every routine runs once and asserts
//! that the search did what it claims: the phase folder engaged on the
//! duty pins, and OPT proved itself exact on both heavy pins. A missing
//! counter or a lost proof panics and fails CI rather than silently
//! benching nothing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlbs_core::{solve_gopt_with, solve_opt_with, BroadcastState};
use std::hint::black_box;
use wsn_bench::AdaptiveBudget;
use wsn_dutycycle::{AlwaysAwake, WindowedRandom};
use wsn_sim::Regime;
use wsn_topology::deploy::SyntheticDeployment;

fn bench_duty_opt(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_duty_opt");
    group.sample_size(10);
    // (nodes, deployment seed, rate): one easy r=50 pin (the phase axis),
    // one hard r=10 pin (wide awake-candidate branching).
    for (nodes, seed, rate) in [(100usize, 0u64, 50u32), (200, 2, 10)] {
        let (topo, src) = SyntheticDeployment::paper(nodes).sample(seed);
        let wake = WindowedRandom::new(topo.len(), rate, seed ^ 0x57a6_6e8d);
        let cfg = AdaptiveBudget::default().config_for(Regime::Duty { rate }, nodes);
        group.bench_with_input(
            BenchmarkId::new(format!("folded_r{rate}"), nodes),
            &nodes,
            |b, _| {
                let mut substrate = BroadcastState::new();
                b.iter(|| {
                    let out = solve_opt_with(black_box(&topo), src, &wake, &cfg, &mut substrate);
                    assert!(
                        out.stats.phase_classes > 0,
                        "phase folder never engaged on a duty search"
                    );
                    assert!(out.stats.memo_entries > 0, "memo_entries missing");
                    out.latency
                })
            },
        );
    }
    group.finish();
}

fn bench_heavy_opt(c: &mut Criterion) {
    // Paper-grid's heaviest instance (300 nodes, deployment 1) and its
    // r = 10 twin, as the benchmark samples them.
    let mut group = c.benchmark_group("search_heavy_opt");
    group.sample_size(10);
    let n = 300;
    let seed = 0x5EED_2012 ^ ((n as u64) << 16) ^ 1;
    let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
    let wake = WindowedRandom::new(n, 10, seed ^ 0xAAAA);
    let budget = AdaptiveBudget::default();
    group.bench_function(BenchmarkId::new("sync", n), |b| {
        let cfg = budget.config_for(Regime::Sync, n);
        let mut substrate = BroadcastState::new();
        b.iter(|| {
            let out = solve_opt_with(black_box(&topo), src, &AlwaysAwake, &cfg, &mut substrate);
            assert!(out.exact, "sync OPT lost its proof on the heavy pin");
            out.latency
        })
    });
    group.bench_function(BenchmarkId::new("duty_r10", n), |b| {
        let cfg = budget.config_for(Regime::Duty { rate: 10 }, n);
        let mut substrate = BroadcastState::new();
        b.iter(|| {
            let out = solve_opt_with(black_box(&topo), src, &wake, &cfg, &mut substrate);
            assert!(out.exact, "duty OPT lost its proof on the heavy pin");
            out.latency
        })
    });
    group.finish();
}

fn bench_duty_gopt(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_duty_gopt");
    group.sample_size(10);
    let (topo, src) = SyntheticDeployment::paper(200).sample(2);
    let wake = WindowedRandom::new(topo.len(), 10, 2 ^ 0x57a6_6e8d);
    let cfg = AdaptiveBudget::default().config_for(Regime::Duty { rate: 10 }, 200);
    group.bench_function(BenchmarkId::new("folded", 200), |b| {
        let mut substrate = BroadcastState::new();
        b.iter(|| {
            let out = solve_gopt_with(black_box(&topo), src, &wake, &cfg, &mut substrate);
            assert!(out.exact, "G-OPT should stay exact on this pin");
            out.latency
        })
    });
    group.finish();
}

criterion_group!(benches, bench_duty_opt, bench_heavy_opt, bench_duty_gopt);
criterion_main!(benches);
