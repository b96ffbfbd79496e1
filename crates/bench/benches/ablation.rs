//! Ablation benches for the schedulers' design choices.
//!
//! Each group isolates one ingredient of the paper's contribution and
//! reports the *latency* impact (encoded in the benchmark name output via
//! eprintln on first run) as well as the wall-time cost:
//!
//! * `barrier_vs_pipeline` — the paper's key idea: removing the BFS layer
//!   barrier (26-approx → greedy pipeline) vs adding global awareness on
//!   top (E-model, G-OPT);
//! * `coloring_staleness` — FixedColors vs Recolor layered baselines:
//!   how much of the baseline's loss is stale coloring rather than the
//!   barrier itself;
//! * `opt_beam_width` — OPT branch-cap sensitivity: latency found vs beam
//!   width (exactness ablation for the capped-enumeration beam).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlbs_core::{solve_opt, SearchConfig};
use std::hint::black_box;
use wsn_dutycycle::AlwaysAwake;
use wsn_sim::{run_instance, Algorithm, Regime};
use wsn_topology::deploy::SyntheticDeployment;

fn bench_barrier_vs_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("barrier_vs_pipeline");
    group.sample_size(10);
    let (topo, src) = SyntheticDeployment::paper(200).sample(5);
    let cfg = SearchConfig::default();
    for alg in [
        Algorithm::Layered,        // barrier + stale colors
        Algorithm::LayeredRecolor, // barrier only
        Algorithm::GreedyPipeline, // no barrier, naive selection
        Algorithm::EModelPipeline, // no barrier, E-model selection
        Algorithm::GOpt,           // no barrier, exact selection
    ] {
        let latency = run_instance(&topo, src, Regime::Sync, alg, 7, &cfg).latency;
        group.bench_function(format!("{alg:?}(P={latency})"), |b| {
            b.iter(|| run_instance(black_box(&topo), src, Regime::Sync, alg, 7, &cfg))
        });
    }
    group.finish();
}

fn bench_coloring_staleness(c: &mut Criterion) {
    let mut group = c.benchmark_group("coloring_staleness");
    group.sample_size(10);
    let cfg = SearchConfig::default();
    for nodes in [100usize, 300] {
        let (topo, src) = SyntheticDeployment::paper(nodes).sample(6);
        for alg in [
            Algorithm::Layered,
            Algorithm::LayeredRecolor,
            Algorithm::CdsLayered,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{alg:?}"), nodes),
                &nodes,
                |b, _| b.iter(|| run_instance(black_box(&topo), src, Regime::Sync, alg, 7, &cfg)),
            );
        }
    }
    group.finish();
}

fn bench_emodel_directionality(c: &mut Criterion) {
    // Ablation: the 4-tuple (directional, Eq. 10) vs a scalar
    // distance-to-edge estimate. Latencies are embedded in the bench names;
    // wall time compares the two constructions + pipeline runs.
    use mlbs_core::{
        run_pipeline, EModel, EModelSelector, PipelineConfig, ScalarESelector, ScalarEdgeDistance,
    };
    let mut group = c.benchmark_group("emodel_directionality");
    group.sample_size(10);
    let (topo, src) = SyntheticDeployment::paper(200).sample(9);
    let em = EModel::build(&topo, &AlwaysAwake);
    let scalar = ScalarEdgeDistance::build(&topo, &AlwaysAwake);
    let dir_latency = run_pipeline(
        &topo,
        src,
        &AlwaysAwake,
        &mut EModelSelector::new(&em),
        &PipelineConfig::default(),
    )
    .latency();
    let flat_latency = run_pipeline(
        &topo,
        src,
        &AlwaysAwake,
        &mut ScalarESelector::new(&scalar),
        &PipelineConfig::default(),
    )
    .latency();
    group.bench_function(format!("directional_4tuple(P={dir_latency})"), |b| {
        b.iter(|| {
            let em = EModel::build(black_box(&topo), &AlwaysAwake);
            run_pipeline(
                &topo,
                src,
                &AlwaysAwake,
                &mut EModelSelector::new(&em),
                &PipelineConfig::default(),
            )
        })
    });
    group.bench_function(format!("scalar_distance(P={flat_latency})"), |b| {
        b.iter(|| {
            let sc = ScalarEdgeDistance::build(black_box(&topo), &AlwaysAwake);
            run_pipeline(
                &topo,
                src,
                &AlwaysAwake,
                &mut ScalarESelector::new(&sc),
                &PipelineConfig::default(),
            )
        })
    });
    group.finish();
}

fn bench_localized_vs_centralized(c: &mut Criterion) {
    // Extension ablation: the §VII localized protocol against the
    // centralized pipeline it approximates.
    use mlbs_core::{run_pipeline, EModel, EModelSelector, PipelineConfig};
    let mut group = c.benchmark_group("localized_vs_centralized");
    group.sample_size(10);
    let (topo, src) = SyntheticDeployment::paper(150).sample(12);
    let em = EModel::build(&topo, &AlwaysAwake);
    let local = wsn_distributed::localized_broadcast(&topo, src, &AlwaysAwake, &em, 1);
    let central = run_pipeline(
        &topo,
        src,
        &AlwaysAwake,
        &mut EModelSelector::new(&em),
        &PipelineConfig::default(),
    );
    group.bench_function(format!("localized(P={})", local.schedule.latency()), |b| {
        b.iter(|| wsn_distributed::localized_broadcast(black_box(&topo), src, &AlwaysAwake, &em, 1))
    });
    group.bench_function(format!("centralized(P={})", central.latency()), |b| {
        b.iter(|| {
            run_pipeline(
                black_box(&topo),
                src,
                &AlwaysAwake,
                &mut EModelSelector::new(&em),
                &PipelineConfig::default(),
            )
        })
    });
    group.finish();
}

fn bench_opt_beam_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("opt_beam_width");
    group.sample_size(10);
    let (topo, src) = SyntheticDeployment::paper(150).sample(8);
    for cap in [4usize, 16, 64, 256] {
        let cfg = SearchConfig {
            branch_cap: cap,
            ..SearchConfig::default()
        };
        let out = solve_opt(&topo, src, &AlwaysAwake, &cfg);
        group.bench_function(
            format!("cap{cap}(P={},exact={})", out.latency, out.exact),
            |b| b.iter(|| solve_opt(black_box(&topo), src, &AlwaysAwake, &cfg)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_barrier_vs_pipeline,
    bench_coloring_staleness,
    bench_emodel_directionality,
    bench_localized_vs_centralized,
    bench_opt_beam_width
);
criterion_main!(benches);
