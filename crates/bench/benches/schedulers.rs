//! Scheduler wall-time per figure point: how long each algorithm takes to
//! schedule one broadcast at the paper's densities. These are the costs
//! behind regenerating Figures 3, 4 and 6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlbs_core::SearchConfig;
use std::hint::black_box;
use wsn_bench::AdaptiveBudget;
use wsn_sim::{run_instance, Algorithm, Regime};
use wsn_topology::deploy::SyntheticDeployment;

fn bench_sync(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_sync");
    group.sample_size(10);
    for nodes in [100usize, 300] {
        let (topo, src) = SyntheticDeployment::paper(nodes).sample(42);
        for alg in [
            Algorithm::Layered,
            Algorithm::EModelPipeline,
            Algorithm::GOpt,
            Algorithm::Opt,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{:?}", alg), nodes),
                &nodes,
                |b, _| {
                    b.iter(|| {
                        run_instance(
                            black_box(&topo),
                            src,
                            Regime::Sync,
                            alg,
                            7,
                            &SearchConfig::default(),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_duty(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_duty10");
    group.sample_size(10);
    let cfg = AdaptiveBudget::default().config_for(Regime::Duty { rate: 10 }, 200);
    for nodes in [100usize, 300] {
        let (topo, src) = SyntheticDeployment::paper(nodes).sample(42);
        for alg in [
            Algorithm::Layered,
            Algorithm::EModelPipeline,
            Algorithm::GOpt,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{:?}", alg), nodes),
                &nodes,
                |b, _| {
                    b.iter(|| {
                        run_instance(
                            black_box(&topo),
                            src,
                            Regime::Duty { rate: 10 },
                            alg,
                            7,
                            &cfg,
                        )
                    })
                },
            );
        }
    }
    group.finish();

    let mut group = c.benchmark_group("fig6_duty50");
    group.sample_size(10);
    let cfg = AdaptiveBudget::default().config_for(Regime::Duty { rate: 50 }, 200);
    let (topo, src) = SyntheticDeployment::paper(200).sample(42);
    for alg in [
        Algorithm::Layered,
        Algorithm::EModelPipeline,
        Algorithm::GOpt,
    ] {
        group.bench_function(format!("{:?}/200", alg), |b| {
            b.iter(|| {
                run_instance(
                    black_box(&topo),
                    src,
                    Regime::Duty { rate: 50 },
                    alg,
                    7,
                    &cfg,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sync, bench_duty);
criterion_main!(benches);
