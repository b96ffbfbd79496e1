//! Parallel-engine bench: portfolio anytime search across thread counts.
//! Doubles as the CI smoke (`--test`): every setup asserts the portfolio
//! returns a valid schedule that is never worse than the serial chain
//! under the same iteration budget, independent of how many cores the
//! machine actually has.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wsn_anytime::{solve_anytime, AnytimeConfig, Budget, Portfolio};
use wsn_dutycycle::AlwaysAwake;
use wsn_phy::ProtocolModel;
use wsn_topology::deploy::SyntheticDeployment;

fn bench_portfolio(c: &mut Criterion) {
    let mut group = c.benchmark_group("portfolio_search");
    group.sample_size(10);
    let (topo, src) = SyntheticDeployment::scaled(2_000).sample(3);
    let cfg = AnytimeConfig {
        budget: Budget::Iterations(5_000),
        ..AnytimeConfig::default()
    };
    let serial = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
    for threads in [1usize, 2, 4] {
        let port = Portfolio::with_config(cfg.clone(), threads);
        let out = port.solve(&topo, src, &AlwaysAwake, &ProtocolModel, None);
        // CI smoke: the portfolio contract — valid schedules that never
        // lose to the serial chain under the same iteration budget.
        out.schedule.verify(&topo, &AlwaysAwake).unwrap();
        assert!(
            out.latency <= serial.latency,
            "threads {threads}: portfolio ({}) lost to serial ({})",
            out.latency,
            serial.latency
        );
        group.bench_with_input(
            BenchmarkId::new(format!("n2000(P={})", out.latency), threads),
            &threads,
            |b, _| b.iter(|| port.solve(black_box(&topo), src, &AlwaysAwake, &ProtocolModel, None)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
