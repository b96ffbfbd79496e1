//! Substrate micro-benchmarks: the building blocks every scheduler leans
//! on. Useful for spotting regressions in the hot paths (UDG construction,
//! neighbor bitsets, conflict graphs, coloring, E-model construction, the
//! search's hop bound).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wsn_bitset::NodeSet;
use wsn_coloring::{eligible_senders, greedy_coloring, maximal_conflict_free_sets};
use wsn_dutycycle::{AlwaysAwake, WakeSchedule, WindowedRandom};
use wsn_interference::{ConflictGraph, ConflictGraphBuilder};
use wsn_topology::{deploy::SyntheticDeployment, NodeId, Topology};

fn bench_topology(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology");
    for nodes in [100usize, 300] {
        let (topo, _) = SyntheticDeployment::paper(nodes).sample(1);
        let positions = topo.positions().to_vec();
        group.bench_with_input(BenchmarkId::new("udg_build", nodes), &nodes, |b, _| {
            b.iter(|| wsn_topology::Topology::unit_disk(black_box(positions.clone()), 10.0))
        });
        group.bench_with_input(BenchmarkId::new("edge_nodes", nodes), &nodes, |b, _| {
            b.iter(|| wsn_topology::boundary::edge_nodes(black_box(&topo)))
        });
    }
    group.finish();
}

fn bench_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("coloring");
    let (topo, src) = SyntheticDeployment::paper(300).sample(2);
    // A mid-broadcast informed set: everything within 2 hops of the source.
    let hops = wsn_topology::metrics::bfs_hops(&topo, src);
    let informed = NodeSet::from_indices(topo.len(), (0..topo.len()).filter(|&u| hops[u] <= 2));
    let candidates = eligible_senders(&topo, &informed);
    group.bench_function("greedy_coloring/300", |b| {
        b.iter(|| greedy_coloring(black_box(&topo), black_box(&informed)))
    });
    group.bench_function("conflict_graph/300", |b| {
        b.iter(|| {
            ConflictGraph::build(
                black_box(&topo),
                black_box(&candidates),
                &informed.complement(),
            )
        })
    });
    let cg = ConflictGraph::build(&topo, &candidates, &informed.complement());
    group.bench_function("maximal_sets_cap64/300", |b| {
        b.iter(|| maximal_conflict_free_sets(black_box(&cg), 64))
    });
    group.finish();
}

/// A search-shaped `(candidates, uninformed)` trajectory: the greedy
/// broadcast's state sequence, expanded with per-state branch probes —
/// for every state the DFS pattern of visiting several sibling children
/// (uninformed shrinks by one relay's coverage) and backtracking to the
/// parent. This is the call sequence `Searcher::branches` hands the
/// conflict builder.
fn broadcast_trajectory(topo: &Topology, src: NodeId) -> Vec<(Vec<NodeId>, NodeSet)> {
    let n = topo.len();
    let mut informed = NodeSet::new(n);
    informed.insert(src.idx());
    let mut steps = Vec::new();
    loop {
        let uninformed = informed.complement();
        let candidates = eligible_senders(topo, &informed);
        if candidates.is_empty() {
            break;
        }
        steps.push((candidates.clone(), uninformed.clone()));
        // Branch probes: three sibling children plus the backtrack home.
        for probe in 0..3usize {
            let relay = candidates[probe * candidates.len().div_ceil(4) % candidates.len()];
            let mut child = uninformed.clone();
            child.difference_with(topo.neighbor_set(relay));
            steps.push((candidates.clone(), child));
        }
        steps.push((candidates.clone(), uninformed.clone()));
        let classes = wsn_coloring::greedy_coloring_of_candidates(topo, &informed, &candidates);
        for &u in &classes[0] {
            informed.union_with(topo.neighbor_set(u));
        }
        if informed.is_full() {
            break;
        }
    }
    steps
}

/// The ISSUE-2 acceptance bench: replaying a 300-node broadcast
/// trajectory through the incremental builder vs rebuilding the conflict
/// graph from scratch at every state.
fn bench_incremental_conflict(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_incremental");
    for nodes in [100usize, 300] {
        let (topo, src) = SyntheticDeployment::paper(nodes).sample(7);
        let steps = broadcast_trajectory(&topo, src);
        group.bench_with_input(BenchmarkId::new("rebuild", nodes), &nodes, |b, _| {
            b.iter(|| {
                for (cands, unf) in &steps {
                    black_box(ConflictGraph::build(&topo, cands, unf));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("incremental", nodes), &nodes, |b, _| {
            b.iter(|| {
                let mut builder = ConflictGraphBuilder::new();
                builder.reset(topo.len());
                for (cands, unf) in &steps {
                    black_box(builder.update(&topo, cands, unf));
                }
            })
        });
    }
    group.finish();
}

/// Re-measures the `WITNESS_RETEST_MIN_UNIVERSE` crossover: one universe
/// below the 1024 default and one above, each driven through a
/// shrink-heavy retest workload with the witness cache forced on
/// (threshold 0) and forced off (`usize::MAX`). If "witness_on" wins below
/// 1024 or loses above it on your hardware, the default constant in
/// `wsn-interference::builder` deserves an update.
fn bench_witness_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("witness_threshold");
    for universe in [700usize, 1400] {
        let topo = Topology::unit_disk(
            (0..universe)
                .map(|i| wsn_geom::Point::new(i as f64 * 0.8, 0.0))
                .collect(),
            2.0,
        );
        let cands: Vec<NodeId> = (universe / 2..universe / 2 + 48)
            .map(|i| NodeId(i as u32))
            .collect();
        // A retest-heavy walk: witnesses drain out of W̄ near the
        // candidates, so every step retests the same pairs.
        let mut walk = Vec::new();
        let mut unf = NodeSet::full(universe);
        for step in 0..24usize {
            unf.remove(universe / 2 - 4 + step);
            walk.push(unf.clone());
        }
        for (label, threshold) in [("witness_on", 0usize), ("witness_off", usize::MAX)] {
            group.bench_with_input(BenchmarkId::new(label, universe), &universe, |b, _| {
                b.iter(|| {
                    let mut builder = ConflictGraphBuilder::new();
                    builder.set_witness_retest_min_universe(threshold);
                    builder.reset(topo.len());
                    for unf in &walk {
                        black_box(builder.update(&topo, &cands, unf));
                    }
                })
            });
        }
    }
    group.finish();
}

fn bench_emodel(c: &mut Criterion) {
    let mut group = c.benchmark_group("emodel");
    for nodes in [100usize, 300] {
        let (topo, _) = SyntheticDeployment::paper(nodes).sample(3);
        group.bench_with_input(BenchmarkId::new("build_sync", nodes), &nodes, |b, _| {
            b.iter(|| mlbs_core::EModel::build(black_box(&topo), &AlwaysAwake))
        });
        let wake = WindowedRandom::new(topo.len(), 10, 9);
        group.bench_with_input(BenchmarkId::new("build_duty10", nodes), &nodes, |b, _| {
            b.iter(|| mlbs_core::EModel::build(black_box(&topo), &wake))
        });
    }
    group.finish();
}

/// The exact searches' per-state hop bound on paper-grid's heaviest
/// instance (sync, 300 nodes), from a mid-search informed set: everything
/// within three hops of the source. The set-up asserts the word-parallel
/// profile equals the queue BFS it replaced, so the `--test` smoke checks
/// it in release mode.
fn bench_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("bounds");
    let n = 300;
    let (topo, src) = SyntheticDeployment::paper(n).sample(0x5EED_2012 ^ ((n as u64) << 16) ^ 1);
    let hops = wsn_topology::metrics::bfs_hops(&topo, src);
    let informed = NodeSet::from_indices(n, (0..n).filter(|&u| hops[u] <= 3));
    assert!(!informed.is_full(), "the informed set must be mid-search");
    let oracle = wsn_topology::metrics::bfs_hops_from_set(&topo, &informed);
    let (_, dist) = mlbs_core::bounds::remaining_hops_profile(&topo, &informed);
    assert_eq!(dist, oracle, "hop profile differs from the queue BFS");
    group.bench_function("remaining_hops_profile/300", |b| {
        b.iter(|| mlbs_core::bounds::remaining_hops_profile(black_box(&topo), black_box(&informed)))
    });
    group.finish();
}

fn bench_dutycycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("dutycycle");
    let wake = WindowedRandom::new(300, 10, 4);
    group.bench_function("next_send", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for u in 0..300 {
                acc = acc.wrapping_add(wake.next_send(u, black_box(12345)));
            }
            acc
        })
    });
    group.bench_function("expected_cwt", |b| {
        b.iter(|| wake.expected_cwt(black_box(3), black_box(17)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_topology,
    bench_coloring,
    bench_incremental_conflict,
    bench_witness_threshold,
    bench_emodel,
    bench_bounds,
    bench_dutycycle
);
criterion_main!(benches);
