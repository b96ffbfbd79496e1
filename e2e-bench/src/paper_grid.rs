//! `paper-grid`: the paper's §V-A instances (50–300 nodes on 50×50 ft,
//! 10 ft radius, source 5–8 hops) in the synchronous regime and at duty
//! cycle r = 10, solved by OPT, G-OPT, the E-model pipeline and the
//! layered baseline under the sweep's deterministic search budgets.
//!
//! The instance grid is pinned, so `latency_slots` and `exact_frac` read
//! the same on every run; `--seed` orders the solves in every round.

use std::collections::HashMap;
use std::time::Instant;

use mlbs_core::{
    run_pipeline_with, solve_gopt_with, solve_opt_with, BroadcastState, EModel, EModelSelector,
    PipelineConfig, Schedule, SearchConfig, SearchStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wsn_baselines::{schedule_layered_with, LayeredMode};
use wsn_bench::AdaptiveBudget;
use wsn_dutycycle::{AlwaysAwake, WakeSchedule, WindowedRandom};
use wsn_phy::ProtocolModel;
use wsn_sim::Regime;
use wsn_topology::deploy::SyntheticDeployment;
use wsn_topology::{metrics, NodeId, Topology};

use crate::stats::{mean, median, ms_since, quantile, shuffle};
use crate::{trace, Args, Outcome};
use wsn_obs::Recorder;

const NODES: [usize; 6] = [50, 100, 150, 200, 250, 300];
/// Deployments per node count.
const DEPLOYMENTS: u64 = 2;
/// Duty-cycle rate of the duty regime (Fig. 4).
const RATE: u32 = 10;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
const POOL_SEED: u64 = 0x5EED_2012;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Algo {
    Opt,
    GOpt,
    EModel,
    Layered,
}

const ALGOS: [Algo; 4] = [Algo::Opt, Algo::GOpt, Algo::EModel, Algo::Layered];

struct Instance {
    topo: Topology,
    source: NodeId,
    /// The BFS-depth lower bound: the source's eccentricity.
    depth: u64,
    regime: Regime,
    wake_seed: u64,
    config: SearchConfig,
}

/// One timed solve.
struct Solve {
    job: (usize, Algo),
    latency: u64,
    exact: Option<bool>,
    stats: Option<SearchStats>,
    algo_ms: f64,
    verify_ms: f64,
}

fn sample_pool() -> (Vec<Instance>, Vec<f64>, Vec<usize>) {
    let mut pool = Vec::new();
    let mut sample_ms = Vec::new();
    let mut edges = Vec::new();
    for &n in &NODES {
        for d in 0..DEPLOYMENTS {
            let seed = POOL_SEED ^ ((n as u64) << 16) ^ d;
            let t = Instant::now();
            let (topo, source) = SyntheticDeployment::paper(n).sample(seed);
            sample_ms.push(ms_since(t));
            edges.push(topo.csr().edge_count());
            let depth = u64::from(metrics::eccentricity(&topo, source).expect("connected"));
            for regime in [Regime::Sync, Regime::Duty { rate: RATE }] {
                pool.push(Instance {
                    topo: topo.clone(),
                    source,
                    depth,
                    regime,
                    wake_seed: seed ^ 0xAAAA,
                    config: AdaptiveBudget::default().config_for(regime, n),
                });
            }
        }
    }
    (pool, sample_ms, edges)
}

fn solve_on<S: WakeSchedule>(
    inst: &Instance,
    algo: Algo,
    wake: &S,
    state: &mut BroadcastState,
) -> (Schedule, Option<bool>, Option<SearchStats>) {
    let cfg = &inst.config;
    match algo {
        Algo::Opt => {
            let _s = trace::span("core.opt");
            let out = solve_opt_with(&inst.topo, inst.source, wake, cfg, state);
            (out.schedule, Some(out.exact), Some(out.stats))
        }
        Algo::GOpt => {
            let _s = trace::span("core.gopt");
            let out = solve_gopt_with(&inst.topo, inst.source, wake, cfg, state);
            (out.schedule, Some(out.exact), Some(out.stats))
        }
        Algo::EModel => {
            let _s = trace::span("core.emodel");
            let em = EModel::build(&inst.topo, wake);
            let pipe = PipelineConfig {
                start_from: cfg.start_from,
            };
            let s = run_pipeline_with(
                &inst.topo,
                inst.source,
                wake,
                &mut EModelSelector::new(&em),
                &pipe,
                state,
            );
            (s, None, None)
        }
        Algo::Layered => {
            let _s = trace::span("baselines.layered");
            let s = schedule_layered_with(
                &inst.topo,
                inst.source,
                wake,
                cfg.start_from,
                LayeredMode::FixedColors,
                state,
            );
            (s, None, None)
        }
    }
}

fn timed<S: WakeSchedule>(
    inst: &Instance,
    job: (usize, Algo),
    wake: &S,
    state: &mut BroadcastState,
    out: &mut Outcome,
) -> Solve {
    let _root = trace::span("paper.solve");
    let t = Instant::now();
    let (schedule, exact, stats) = solve_on(inst, job.1, wake, state);
    let algo_ms = ms_since(t);
    let t = Instant::now();
    let verdict = {
        let _s = trace::span("core.verify");
        schedule.verify_with_model(&inst.topo, wake, &ProtocolModel)
    };
    let verify_ms = ms_since(t);
    if let Err(e) = verdict {
        out.violations.push(format!(
            "instance {} {:?}: invalid schedule: {e}",
            job.0, job.1
        ));
    }
    Solve {
        job,
        latency: schedule.latency(),
        exact,
        stats,
        algo_ms,
        verify_ms,
    }
}

struct Pass {
    /// The untimed warm-up round, in job order.
    warm: Vec<Solve>,
    timed: Vec<Solve>,
    /// Every timed round replayed with tracing on (trace runs only).
    traced: Vec<Solve>,
    rounds: usize,
    wall_ms: f64,
    traced_wall_ms: f64,
}

/// Runs one untimed warm-up round, then as many whole timed rounds of
/// every job in a seeded order as fit in `seconds` (at least one). With a
/// recorder, each round is also run with tracing on, back to back with its
/// untraced run, so both passes see the host in the same state.
fn pass(
    pool: &[Instance],
    seed: u64,
    seconds: f64,
    rec: Option<&Recorder>,
    out: &mut Outcome,
) -> Pass {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs: Vec<(usize, Algo)> = (0..pool.len())
        .flat_map(|i| ALGOS.iter().map(move |&a| (i, a)))
        .collect();
    let wakes: Vec<Option<WindowedRandom>> = pool
        .iter()
        .map(|inst| match inst.regime {
            Regime::Sync => None,
            Regime::Duty { rate } => {
                Some(WindowedRandom::new(inst.topo.len(), rate, inst.wake_seed))
            }
        })
        .collect();
    let mut state = BroadcastState::new();
    let mut round = |jobs: &[(usize, Algo)], solves: &mut Vec<Solve>, out: &mut Outcome| {
        let t = Instant::now();
        for &job in jobs {
            let inst = &pool[job.0];
            solves.push(match &wakes[job.0] {
                None => timed(inst, job, &AlwaysAwake, &mut state, out),
                Some(w) => timed(inst, job, w, &mut state, out),
            });
        }
        ms_since(t)
    };
    // One untimed round first: the first solves pay for growing the
    // substrate's scratch, which later rounds reuse.
    let mut p = Pass {
        warm: Vec::new(),
        timed: Vec::new(),
        traced: Vec::new(),
        rounds: 0,
        wall_ms: 0.0,
        traced_wall_ms: 0.0,
    };
    round(&jobs, &mut p.warm, out);
    let mut last = 0.0;
    while p.rounds == 0 || p.wall_ms + last <= seconds * 1e3 {
        shuffle(&mut jobs, &mut rng);
        // The untraced and the traced round take turns going first, so
        // that neither gains on average from the other warming the caches.
        let traced_first = p.rounds % 2 == 1;
        for traced in [traced_first, !traced_first] {
            match (traced, rec) {
                (false, _) => {
                    last = round(&jobs, &mut p.timed, out);
                    p.wall_ms += last;
                }
                (true, Some(rec)) => {
                    trace::on(rec);
                    p.traced_wall_ms += round(&jobs, &mut p.traced, out);
                    trace::off();
                }
                (true, None) => {}
            }
        }
        p.rounds += 1;
    }
    p
}

/// The correctness gate: BFS-depth bound, repeat determinism and exact
/// OPT as a lower bound for every scheduler. Returns the first-round
/// latency and OPT exactness per job.
fn check<'a>(
    pool: &[Instance],
    solves: impl Iterator<Item = &'a Solve>,
    out: &mut Outcome,
) -> HashMap<(usize, Algo), (u64, Option<bool>)> {
    let mut first: HashMap<(usize, Algo), (u64, Option<bool>)> = HashMap::new();
    for s in solves {
        let inst = &pool[s.job.0];
        if s.latency < inst.depth {
            out.violations.push(format!(
                "instance {} {:?}: latency {} below the BFS-depth bound {}",
                s.job.0, s.job.1, s.latency, inst.depth
            ));
        }
        match first.get(&s.job) {
            None => {
                first.insert(s.job, (s.latency, s.exact));
            }
            Some(&prev) if prev != (s.latency, s.exact) => out.violations.push(format!(
                "instance {} {:?}: repeat gave {:?}, first solve {:?}",
                s.job.0,
                s.job.1,
                (s.latency, s.exact),
                prev
            )),
            Some(_) => {}
        }
    }
    for i in 0..pool.len() {
        if let Some(&(opt, Some(true))) = first.get(&(i, Algo::Opt)) {
            for a in ALGOS {
                if let Some(&(l, _)) = first.get(&(i, a)) {
                    if l < opt {
                        out.violations.push(format!(
                            "instance {i}: {a:?} latency {l} beats exact OPT {opt}"
                        ));
                    }
                }
            }
        }
    }
    first
}

fn algo_ms(solves: &[Solve], algo: Algo) -> Vec<f64> {
    solves
        .iter()
        .filter(|s| s.job.1 == algo)
        .map(|s| s.algo_ms)
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut sampled = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = sample_pool();
        setup.push(t.elapsed().as_secs_f64());
        sampled = Some(s);
    }
    let (pool, sample_ms, edges) = sampled.expect("at least one set-up");

    let rec = args.trace.then(trace::recorder);
    let seconds = args.seconds * if args.trace { crate::TRACE_WORK } else { 1.0 };
    let p = pass(&pool, args.seed, seconds, rec.as_ref(), &mut out);
    let all = p.warm.iter().chain(&p.timed).chain(&p.traced);
    let first = check(&pool, all, &mut out);
    let solves = &p.timed;
    out.attempted = (p.warm.len() + solves.len() + p.traced.len()) as u64;
    let lat: Vec<f64> = first.values().map(|&(l, _)| l as f64).collect();
    let solve_ms: Vec<f64> = solves.iter().map(|s| s.algo_ms + s.verify_ms).collect();
    out.e2e.insert("setup_s", median(&setup));
    out.e2e.insert("latency_slots", mean(&lat));
    out.e2e.insert("solve_p50_ms", median(&solve_ms));
    out.e2e.insert(
        "solves_per_s",
        solves.len() as f64 / (solve_ms.iter().sum::<f64>() / 1e3),
    );
    println!(
        "info  paper-grid: {} instances x {} schedulers, {} rounds, {} solves in {:.0} ms",
        pool.len(),
        ALGOS.len(),
        p.rounds,
        solves.len(),
        p.wall_ms
    );
    let Some(rec) = rec else {
        return out;
    };

    // Workload-level figures of the untraced rounds.
    let opt_exact: Vec<f64> = first
        .iter()
        .filter(|(k, _)| k.1 == Algo::Opt)
        .map(|(_, &(_, e))| if e == Some(true) { 1.0 } else { 0.0 })
        .collect();
    let l = &mut out.layers;
    l.insert("solve_p90_ms", quantile(&solve_ms, 0.9));
    l.insert("exact_frac", mean(&opt_exact));

    let events = rec.events_snapshot();
    let table = trace::table(
        &events,
        &[
            "paper.solve",
            "core.opt",
            "core.gopt",
            "core.emodel",
            "baselines.layered",
            "core.verify",
        ],
        &["paper.solve"],
    );
    trace::write(
        &args.out,
        &format!("paper-grid-seed{}", args.seed),
        &rec,
        &table,
    );
    let largest = NODES[NODES.len() - 1];
    let (_, bytes) =
        crate::alloc::measure_peak(|| SyntheticDeployment::paper(largest).sample(POOL_SEED));
    let tsolves = &p.traced;

    let l = &mut out.layers;
    l.insert("topology.sample_ms", median(&sample_ms));
    l.insert(
        "topology.edges",
        mean(&edges.iter().map(|&e| e as f64).collect::<Vec<_>>()),
    );
    l.insert("topology.bytes_per_node", bytes as f64 / largest as f64);
    let verify: Vec<f64> = tsolves.iter().map(|s| s.verify_ms).collect();
    l.insert("core.verify_ms", median(&verify));
    for (algo, p50, p90) in [
        (Algo::Opt, "core.opt_ms.p50", "core.opt_ms.p90"),
        (Algo::GOpt, "core.gopt_ms.p50", "core.gopt_ms.p90"),
        (Algo::EModel, "core.emodel_ms.p50", "core.emodel_ms.p90"),
    ] {
        let ms = algo_ms(tsolves, algo);
        l.insert(p50, median(&ms));
        l.insert(p90, quantile(&ms, 0.9));
    }
    l.insert(
        "baselines.layered_ms",
        median(&algo_ms(tsolves, Algo::Layered)),
    );
    for (algo, name) in [
        (Algo::Opt, "core.opt_latency_slots"),
        (Algo::GOpt, "core.gopt_latency_slots"),
        (Algo::EModel, "core.emodel_latency_slots"),
        (Algo::Layered, "baselines.layered_latency_slots"),
    ] {
        let v: Vec<f64> = first
            .iter()
            .filter(|(k, _)| k.1 == algo)
            .map(|(_, &(l, _))| l as f64)
            .collect();
        l.insert(name, mean(&v));
    }
    // Search counters of one round: deterministic, so they repeat exactly.
    let round: Vec<&SearchStats> = p.warm.iter().filter_map(|s| s.stats.as_ref()).collect();
    let sum = |f: fn(&SearchStats) -> usize| round.iter().map(|s| f(s) as f64).sum::<f64>();
    l.insert("core.states", sum(|s| s.states));
    l.insert("core.memo_hits", sum(|s| s.memo_hits));
    l.insert("core.dominance_prunes", sum(|s| s.dominance_prunes));
    l.insert("core.phase_classes", sum(|s| s.phase_classes));
    l.insert("core.state_cap_hits", sum(|s| usize::from(s.state_cap_hit)));
    l.insert("bitset.interned_sets", sum(|s| s.interned_sets));
    let built = sum(|s| s.conflict_rows_built);
    let reused = sum(|s| s.conflict_rows_reused);
    l.insert("interference.rows_built", built);
    l.insert("interference.rows_reused", reused);
    l.insert(
        "interference.reuse_frac",
        reused / (built + reused).max(1.0),
    );
    l.insert(
        "obs.trace_overhead_frac",
        p.traced_wall_ms / p.wall_ms - 1.0,
    );
    l.insert("obs.dropped_events", rec.dropped_events() as f64);
    l.insert(
        "obs.span_coverage_frac",
        trace::coverage(&table.tree_self_us, &solve_ms),
    );
    out
}
