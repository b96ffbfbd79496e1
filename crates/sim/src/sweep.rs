//! The density-sweep experiment: Figures 3, 4 and 6.

use crate::algorithm::{run_instance_with, Algorithm, Regime};
use crate::derive_seed;
use crate::stats::Summary;
use mlbs_core::{BroadcastState, SearchConfig};
use std::collections::HashMap;
use wsn_topology::deploy::SyntheticDeployment;

/// A density sweep: for each node count, draw `instances` deployments and
/// run every algorithm on each.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Node counts (the paper sweeps 50–300 over a 50×50 sq-ft area).
    pub node_counts: Vec<usize>,
    /// Instances per node count.
    pub instances: usize,
    /// Algorithms to run.
    pub algorithms: Vec<Algorithm>,
    /// Timing regime.
    pub regime: Regime,
    /// Master seed; everything else derives from it.
    pub master_seed: u64,
    /// Search configuration for OPT / G-OPT.
    pub search: SearchConfig,
    /// Worker threads (1 = sequential; results are identical either way).
    pub threads: usize,
}

impl Sweep {
    /// The paper's Figure 3/4/6 sweep grid at a chosen instance count.
    pub fn paper_grid(regime: Regime, instances: usize, master_seed: u64) -> Self {
        Sweep {
            node_counts: vec![50, 100, 150, 200, 250, 300],
            instances,
            algorithms: Algorithm::paper_set().to_vec(),
            regime,
            master_seed,
            search: SearchConfig::default(),
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        }
    }

    /// Runs the sweep and aggregates per (algorithm, node count).
    pub fn run(&self) -> SweepResult {
        assert!(self.instances > 0 && !self.node_counts.is_empty());
        let jobs: Vec<(usize, usize)> = self
            .node_counts
            .iter()
            .flat_map(|&n| (0..self.instances).map(move |i| (n, i)))
            .collect();

        // One result bucket per (node count, algorithm).
        let mut latency: HashMap<(usize, Algorithm), Summary> = HashMap::new();
        let mut transmissions: HashMap<(usize, Algorithm), Summary> = HashMap::new();
        let mut coverage: HashMap<(usize, Algorithm), Summary> = HashMap::new();
        let mut search_states: HashMap<(usize, Algorithm), Summary> = HashMap::new();
        let mut traces: Vec<TraceRow> = Vec::new();
        let mut opt_analysis: HashMap<usize, Summary> = HashMap::new();
        let mut baseline_bound: HashMap<usize, Summary> = HashMap::new();
        let mut eccentricity: HashMap<usize, Summary> = HashMap::new();
        let mut inexact = 0usize;

        // Work distribution: an atomic cursor over the job list (an MPMC
        // queue in miniature) feeding an mpsc result channel. Workers
        // claim *batches* of consecutive jobs — one cursor fetch per
        // chunk, not per instance — sized so each worker sees several
        // chunks (load balancing) without contending on the cursor per
        // job. Records are tagged with their job index and aggregated in
        // job order below: Welford accumulation is not
        // permutation-invariant in floating point, and sorting is what
        // makes sweep results bit-identical regardless of thread count
        // and chunk geometry (the property the tests assert).
        let (res_tx, res_rx) = std::sync::mpsc::channel::<(usize, InstanceRecord)>();
        let next_job = std::sync::atomic::AtomicUsize::new(0);

        let workers = self.threads.max(1);
        let chunk = jobs.len().div_ceil(workers * 8).max(1);
        let mut records = std::thread::scope(|scope| {
            for _ in 0..workers {
                let res_tx = res_tx.clone();
                let sweep = &*self;
                let (jobs, next_job) = (&jobs, &next_job);
                scope.spawn(move || {
                    // One broadcast-state substrate per worker, re-targeted
                    // per instance — scratch sets, candidate buffers and
                    // the conflict builder live for the whole sweep.
                    let mut substrate = BroadcastState::new();
                    loop {
                        let start = next_job.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
                        if start >= jobs.len() {
                            return;
                        }
                        for (k, &(nodes, instance)) in
                            jobs.iter().enumerate().skip(start).take(chunk)
                        {
                            let rec = sweep.run_one(nodes, instance, &mut substrate);
                            if res_tx.send((k, rec)).is_err() {
                                return;
                            }
                        }
                    }
                });
            }
            drop(res_tx);
            res_rx.iter().collect::<Vec<_>>()
        });
        records.sort_unstable_by_key(|&(k, _)| k);

        for (_, rec) in records {
            for (alg, r) in &rec.runs {
                latency
                    .entry((rec.nodes, *alg))
                    .or_default()
                    .push(r.latency as f64);
                transmissions
                    .entry((rec.nodes, *alg))
                    .or_default()
                    .push(r.transmissions as f64);
                coverage
                    .entry((rec.nodes, *alg))
                    .or_default()
                    .push(r.mean_coverage);
                if let Some(stats) = &r.search_stats {
                    search_states
                        .entry((rec.nodes, *alg))
                        .or_default()
                        .push(stats.states as f64);
                }
                if let Some(trace) = &r.trace {
                    let series = alg.name(self.regime);
                    traces.extend(trace.iter().map(|t| TraceRow {
                        nodes: rec.nodes,
                        instance: rec.instance,
                        series: series.to_string(),
                        elapsed_ms: t.elapsed_ms,
                        moves: t.moves,
                        latency: t.latency,
                    }));
                }
                if r.exact == Some(false) {
                    inexact += 1;
                }
            }
            // Instance metrics are algorithm-independent: record them once
            // per instance, from the first algorithm's run.
            if let Some((_, first)) = rec.runs.first() {
                opt_analysis
                    .entry(rec.nodes)
                    .or_default()
                    .push(first.opt_analysis as f64);
                baseline_bound
                    .entry(rec.nodes)
                    .or_default()
                    .push(first.baseline_bound as f64);
                eccentricity
                    .entry(rec.nodes)
                    .or_default()
                    .push(first.eccentricity as f64);
            }
        }

        let mut points = Vec::new();
        for &nodes in &self.node_counts {
            let density = nodes as f64 / 2500.0; // 50×50 sq ft (§V-A)
            let per_alg = self
                .algorithms
                .iter()
                .map(|&alg| AlgorithmSummary {
                    name: alg.name(self.regime).to_string(),
                    latency: latency.remove(&(nodes, alg)).unwrap_or_default(),
                    transmissions: transmissions.remove(&(nodes, alg)).unwrap_or_default(),
                    coverage: coverage.remove(&(nodes, alg)).unwrap_or_default(),
                    search_states: search_states.remove(&(nodes, alg)).unwrap_or_default(),
                })
                .collect();
            points.push(SweepPointResult {
                nodes,
                density,
                per_algorithm: per_alg,
                opt_analysis: opt_analysis.remove(&nodes).unwrap_or_default(),
                baseline_bound: baseline_bound.remove(&nodes).unwrap_or_default(),
                eccentricity: eccentricity.remove(&nodes).unwrap_or_default(),
            });
        }
        SweepResult {
            regime: self.regime,
            points,
            inexact_runs: inexact,
            traces,
        }
    }

    /// One instance job: sample the deployment, run every algorithm on it
    /// through the worker's shared substrate. Deployment and wake
    /// randomness depend only on `(master_seed, nodes, instance)`.
    fn run_one(
        &self,
        nodes: usize,
        instance: usize,
        substrate: &mut BroadcastState,
    ) -> InstanceRecord {
        let _job_span = wsn_obs::span_value("sweep.job", nodes as i64);
        let seed = derive_seed(self.master_seed, nodes as u64, instance as u64);
        let deployment = SyntheticDeployment::paper(nodes);
        let (topo, source) = deployment.sample(seed);
        let wake_seed = derive_seed(seed, WAKE_SEED_TAG, 0);
        let runs = self
            .algorithms
            .iter()
            .map(|&alg| {
                (
                    alg,
                    run_instance_with(
                        &topo,
                        source,
                        self.regime,
                        alg,
                        wake_seed,
                        &self.search,
                        substrate,
                    ),
                )
            })
            .collect();
        InstanceRecord {
            nodes,
            instance,
            runs,
        }
    }
}

/// Tag mixed into wake-schedule seeds so wake schedules are decorrelated
/// from deployment randomness.
const WAKE_SEED_TAG: u64 = 0x57a6_6e8d;

/// Results of all algorithms on one instance.
struct InstanceRecord {
    nodes: usize,
    instance: usize,
    runs: Vec<(Algorithm, crate::algorithm::RunResult)>,
}

/// One improving-bound trace point from one anytime run, flattened for
/// CSV export ([`crate::traces_to_csv`]): time-to-quality curves are
/// plottable per `(nodes, instance, series)` group without re-running.
#[derive(Clone, Debug)]
pub struct TraceRow {
    /// Node count of the sweep point.
    pub nodes: usize,
    /// Instance index within the sweep point.
    pub instance: usize,
    /// Result label of the run ([`AlgorithmSummary::name`] convention).
    pub series: String,
    /// Milliseconds since that run's search started (monotonic clock).
    pub elapsed_ms: u64,
    /// Deterministic work units spent when the incumbent was accepted.
    pub moves: u64,
    /// The incumbent latency.
    pub latency: wsn_dutycycle::Slot,
}

/// Per-algorithm aggregates at one sweep point.
#[derive(Clone, Debug)]
pub struct AlgorithmSummary {
    /// Display label ([`Algorithm::name`]).
    pub name: String,
    /// End-to-end latency across instances.
    pub latency: Summary,
    /// Transmission counts across instances.
    pub transmissions: Summary,
    /// Mean lossy-replay coverage across instances — the first-class
    /// reliability metric ([`crate::RunResult::mean_coverage`]).
    pub coverage: Summary,
    /// Search states explored per run (empty for non-search algorithms —
    /// the per-run [`mlbs_core::SearchStats`] promoted to the aggregate).
    pub search_states: Summary,
}

/// Aggregates for one node count.
#[derive(Clone, Debug)]
pub struct SweepPointResult {
    /// Node count.
    pub nodes: usize,
    /// Density in nodes per sq ft.
    pub density: f64,
    /// Per-algorithm aggregates, in `algorithms` order.
    pub per_algorithm: Vec<AlgorithmSummary>,
    /// Theorem 1 bound across instances.
    pub opt_analysis: Summary,
    /// Baseline analytical bound across instances.
    pub baseline_bound: Summary,
    /// Source eccentricity across instances.
    pub eccentricity: Summary,
}

/// A full sweep result.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The regime the sweep ran under.
    pub regime: Regime,
    /// One entry per node count, in sweep order.
    pub points: Vec<SweepPointResult>,
    /// Search runs that hit a cap (0 in exact reproductions).
    pub inexact_runs: usize,
    /// Flattened improving-bound traces of every anytime run, in job
    /// order (deterministic across thread counts up to the wall-clock
    /// `elapsed_ms` column; the `moves` column is bit-reproducible).
    pub traces: Vec<TraceRow>,
}

impl SweepResult {
    /// Mean latency of `name` at the sweep point for `nodes`, if present.
    pub fn mean_latency(&self, nodes: usize, name: &str) -> Option<f64> {
        self.points.iter().find(|p| p.nodes == nodes).and_then(|p| {
            p.per_algorithm
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.latency.mean())
        })
    }

    /// Mean lossy-replay coverage of `name` at the sweep point for
    /// `nodes`, if present.
    pub fn mean_coverage(&self, nodes: usize, name: &str) -> Option<f64> {
        self.points.iter().find(|p| p.nodes == nodes).and_then(|p| {
            p.per_algorithm
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.coverage.mean())
        })
    }

    /// Relative improvement of `better` over `baseline` at each point
    /// (`1 − better/baseline`), averaged across points — the §V-C claim
    /// metric ("room of at least 70% improvement").
    pub fn mean_improvement(&self, better: &str, baseline: &str) -> f64 {
        let mut acc = 0.0;
        let mut k = 0;
        for p in &self.points {
            let b = p
                .per_algorithm
                .iter()
                .find(|a| a.name == baseline)
                .map(|a| a.latency.mean());
            let g = p
                .per_algorithm
                .iter()
                .find(|a| a.name == better)
                .map(|a| a.latency.mean());
            if let (Some(b), Some(g)) = (b, g) {
                if b > 0.0 {
                    acc += 1.0 - g / b;
                    k += 1;
                }
            }
        }
        if k == 0 {
            0.0
        } else {
            acc / k as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep(threads: usize) -> SweepResult {
        Sweep {
            node_counts: vec![50, 80],
            instances: 3,
            algorithms: vec![
                Algorithm::Layered,
                Algorithm::GOpt,
                Algorithm::EModelPipeline,
            ],
            regime: Regime::Sync,
            master_seed: 1234,
            search: SearchConfig::default(),
            threads,
        }
        .run()
    }

    #[test]
    fn sweep_collects_all_points() {
        let r = tiny_sweep(2);
        assert_eq!(r.points.len(), 2);
        for p in &r.points {
            assert_eq!(p.per_algorithm.len(), 3);
            for a in &p.per_algorithm {
                assert_eq!(a.latency.count(), 3);
                assert_eq!(a.transmissions.count(), 3);
                assert!(a.latency.mean() >= 1.0);
                assert_eq!(a.coverage.count(), 3);
                assert!((0.0..=1.0).contains(&a.coverage.mean()));
                assert!(a.coverage.mean() > 0.5, "10% loss can't erase coverage");
            }
            assert_eq!(p.eccentricity.count(), 3);
        }
    }

    #[test]
    fn results_independent_of_thread_count() {
        // Thread count also changes the chunk geometry of the batched job
        // pool, so this doubles as the chunking-is-transparent check.
        let a = tiny_sweep(1);
        let b = tiny_sweep(4);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            for (a, b) in pa.per_algorithm.iter().zip(&pb.per_algorithm) {
                assert_eq!(a.name, b.name);
                assert_eq!(
                    a.latency.mean(),
                    b.latency.mean(),
                    "algorithm {} differs across thread counts",
                    a.name
                );
                assert_eq!(a.latency.min(), b.latency.min());
                assert_eq!(a.latency.max(), b.latency.max());
                assert_eq!(
                    a.coverage.mean(),
                    b.coverage.mean(),
                    "coverage of {} differs across thread counts",
                    a.name
                );
            }
        }
    }

    #[test]
    fn gopt_beats_layered_on_average() {
        let r = tiny_sweep(2);
        for p in &r.points {
            let layered = p
                .per_algorithm
                .iter()
                .find(|a| a.name == "26-approx")
                .unwrap()
                .latency
                .mean();
            let gopt = p
                .per_algorithm
                .iter()
                .find(|a| a.name == "G-OPT")
                .unwrap()
                .latency
                .mean();
            assert!(gopt <= layered);
        }
        assert!(r.mean_improvement("G-OPT", "26-approx") >= 0.0);
    }

    #[test]
    fn mean_latency_lookup() {
        let r = tiny_sweep(2);
        assert!(r.mean_latency(50, "G-OPT").is_some());
        assert!(r.mean_latency(50, "nonexistent").is_none());
        assert!(r.mean_latency(999, "G-OPT").is_none());
    }
}
