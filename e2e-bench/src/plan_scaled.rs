//! `plan-scaled`: cold anytime plans on constant-density 30k-node
//! deployments at a fixed iteration budget. Each plan samples its
//! deployment, builds the conflict model, runs `solve_anytime` and
//! verifies the result.
//!
//! The deployments are pinned and iteration budgets are bit-reproducible,
//! so `latency_slots` reads the same on every run; `--seed` orders the
//! plans in every cycle.

use std::time::Instant;

use mlbs_core::Schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wsn_anytime::{solve_anytime, AnytimeConfig, AnytimeOutcome, Budget, PartialSchedule};
use wsn_dutycycle::AlwaysAwake;
use wsn_interference::ConflictGraphBuilder;
use wsn_phy::PhyModelSpec;
use wsn_topology::deploy::SyntheticDeployment;
use wsn_topology::metrics;

use crate::stats::{mean, median, ms_since, shuffle};
use crate::{trace, Args, Outcome};
use wsn_obs::Recorder;

const NODES: usize = 30_000;
/// Pinned deployment seeds, one plan each.
const PLANS: [u64; 3] = [11, 12, 13];
/// Work units per search: deterministic, so the result repeats exactly.
const ITERATIONS: u64 = 100_000;

struct Plan {
    index: usize,
    /// The whole plan, from sampling to dropping the deployment.
    wall_ms: f64,
    setup_s: f64,
    sample_ms: f64,
    edges: usize,
    bytes: usize,
    search_ms: f64,
    verify_ms: f64,
    depth: u64,
    outcome: AnytimeOutcome,
}

fn config(plan: usize) -> AnytimeConfig {
    AnytimeConfig {
        budget: Budget::Iterations(ITERATIONS),
        seed: 0x1CC5_2012 ^ PLANS[plan],
        ..AnytimeConfig::default()
    }
}

fn plan(index: usize, out: &mut Outcome) -> Plan {
    let _root = trace::span("plan");
    let start = Instant::now();
    let ((topo, source), bytes) = crate::alloc::measure_peak(|| {
        let _s = trace::span("topology.sample");
        SyntheticDeployment::scaled(NODES).sample(PLANS[index])
    });
    let sample_ms = ms_since(start);
    let model = {
        let _s = trace::span("model.build");
        PhyModelSpec::protocol().build(&topo)
    };
    let setup_s = start.elapsed().as_secs_f64();

    let t = Instant::now();
    let outcome = {
        let _s = trace::span("anytime.search");
        solve_anytime(&topo, source, &AlwaysAwake, &model, &config(index))
    };
    let search_ms = ms_since(t);
    let t = Instant::now();
    let verdict = {
        let _s = trace::span("core.verify");
        outcome
            .schedule
            .verify_with_model(&topo, &AlwaysAwake, &model)
    };
    let verify_ms = ms_since(t);
    if let Err(e) = verdict {
        out.violations
            .push(format!("plan {index}: invalid schedule: {e}"));
    }
    let depth = {
        let _s = trace::span("topology.depth");
        u64::from(metrics::eccentricity(&topo, source).expect("connected"))
    };
    let edges = topo.csr().edge_count();
    {
        let _s = trace::span("topology.drop");
        drop(model);
        drop(topo);
    }
    Plan {
        index,
        wall_ms: ms_since(start),
        setup_s,
        sample_ms,
        edges,
        bytes,
        search_ms,
        verify_ms,
        depth,
        outcome,
    }
}

struct Pass {
    plans: Vec<Plan>,
    /// Every plan run again with tracing on (trace runs only), in the same
    /// order.
    traced: Vec<Plan>,
    cycles: usize,
    wall_ms: f64,
}

/// Runs as many whole cycles over the plans, in a seeded order, as fit in
/// `seconds` (at least one). With a recorder, each plan also runs with
/// tracing on, back to back with its untraced run, so both see the host in
/// the same state; the two take turns going first, so that neither gains
/// on average from the other warming the caches.
fn pass(seed: u64, seconds: f64, rec: Option<&Recorder>, out: &mut Outcome) -> Pass {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..PLANS.len()).collect();
    let mut p = Pass {
        plans: Vec::new(),
        traced: Vec::new(),
        cycles: 0,
        wall_ms: 0.0,
    };
    let mut last = 0.0;
    while p.cycles == 0 || p.wall_ms + last <= seconds * 1e3 {
        shuffle(&mut order, &mut rng);
        last = 0.0;
        for &i in &order {
            let traced_first = p.plans.len() % 2 == 1;
            for traced in [traced_first, !traced_first] {
                match (traced, rec) {
                    (false, _) => {
                        let untraced = plan(i, out);
                        last += untraced.wall_ms;
                        p.plans.push(untraced);
                    }
                    (true, Some(rec)) => {
                        trace::on(rec);
                        p.traced.push(plan(i, out));
                        trace::off();
                    }
                    (true, None) => {}
                }
            }
        }
        p.wall_ms += last;
        p.cycles += 1;
    }
    p
}

/// The correctness gate: BFS-depth bound and repeat determinism.
fn check(plans: &[Plan], out: &mut Outcome) -> Vec<u64> {
    let mut first: Vec<Option<(u64, u64)>> = vec![None; PLANS.len()];
    for p in plans {
        let got = (p.outcome.latency, p.outcome.moves);
        if p.outcome.latency < p.depth {
            out.violations.push(format!(
                "plan {}: latency {} below the BFS-depth bound {}",
                p.index, p.outcome.latency, p.depth
            ));
        }
        match first[p.index] {
            None => first[p.index] = Some(got),
            Some(prev) if prev != got => out.violations.push(format!(
                "plan {}: repeat gave (latency, moves) {got:?}, first plan {prev:?}",
                p.index
            )),
            Some(_) => {}
        }
    }
    first.iter().flatten().map(|&(l, _)| l).collect()
}

/// Layer probes outside the timed passes: the greedy seed and the freeze
/// of each plan's incumbent. Returns (greedy ms, freeze ms, pair tests).
fn probes(incumbents: &[(usize, Schedule)]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut greedy, mut freeze, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
    for (index, incumbent) in incumbents {
        let (topo, source) = SyntheticDeployment::scaled(NODES).sample(PLANS[*index]);
        let model = PhyModelSpec::protocol().build(&topo);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(0),
            ..config(*index)
        };
        let t = Instant::now();
        {
            let _s = trace::span("anytime.greedy");
            std::hint::black_box(solve_anytime(&topo, source, &AlwaysAwake, &model, &cfg));
        }
        greedy.push(ms_since(t));
        let mut builder = ConflictGraphBuilder::new();
        let t = Instant::now();
        {
            let _s = trace::span("anytime.freeze");
            std::hint::black_box(PartialSchedule::from_schedule(
                incumbent,
                &topo,
                &model,
                &mut builder,
            ));
        }
        freeze.push(ms_since(t));
        pairs.push(builder.stats().pair_tests as f64);
    }
    (greedy, freeze, pairs)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let rec = args.trace.then(trace::recorder);
    let seconds = args.seconds * if args.trace { crate::TRACE_WORK } else { 1.0 };
    let p = pass(args.seed, seconds, rec.as_ref(), &mut out);
    let latencies = check(&p.plans, &mut out);
    if !p.traced.is_empty() && check(&p.traced, &mut out) != latencies {
        out.violations
            .push("the traced pass gave other latencies than the untraced pass".into());
    }
    let plans = &p.plans;
    out.attempted = (plans.len() + p.traced.len()) as u64;
    let solve_ms: Vec<f64> = plans.iter().map(|p| p.search_ms + p.verify_ms).collect();
    let setup: Vec<f64> = plans.iter().map(|p| p.setup_s).collect();
    out.e2e.insert("setup_s", median(&setup));
    out.e2e.insert(
        "latency_slots",
        mean(&latencies.iter().map(|&l| l as f64).collect::<Vec<_>>()),
    );
    out.e2e.insert("solve_p50_ms", median(&solve_ms));
    out.e2e.insert(
        "solves_per_s",
        plans.len() as f64 / (solve_ms.iter().sum::<f64>() / 1e3),
    );
    println!(
        "info  plan-scaled: {NODES} nodes, {} plans x {} cycles in {:.0} ms, latencies {latencies:?}",
        PLANS.len(),
        p.cycles,
        p.wall_ms
    );
    let Some(rec) = rec else {
        return out;
    };

    let tplans = &p.traced;
    let incumbents: Vec<(usize, Schedule)> = (0..PLANS.len())
        .filter_map(|i| {
            tplans
                .iter()
                .find(|p| p.index == i)
                .map(|p| (i, p.outcome.schedule.clone()))
        })
        .collect();
    trace::on(&rec);
    let (greedy, freeze, pairs) = probes(&incumbents);
    trace::off();
    let events = rec.events_snapshot();
    let table = trace::table(
        &events,
        &[
            "plan",
            "topology.sample",
            "model.build",
            "anytime.search",
            "core.verify",
            "topology.depth",
            "topology.drop",
            "anytime.greedy",
            "anytime.freeze",
        ],
        &["plan"],
    );
    trace::write(
        &args.out,
        &format!("plan-scaled-seed{}", args.seed),
        &rec,
        &table,
    );

    let f = |g: fn(&Plan) -> f64| tplans.iter().map(g).collect::<Vec<f64>>();
    let untraced_ms: Vec<f64> = p.plans.iter().map(|p| p.wall_ms).collect();
    let l = &mut out.layers;
    l.insert("topology.sample_ms", median(&f(|p| p.sample_ms)));
    l.insert("topology.edges", mean(&f(|p| p.edges as f64)));
    l.insert(
        "topology.bytes_per_node",
        mean(&f(|p| p.bytes as f64)) / NODES as f64,
    );
    l.insert("anytime.greedy_ms", median(&greedy));
    l.insert("anytime.search_ms", median(&f(|p| p.search_ms)));
    l.insert("anytime.passes", mean(&f(|p| p.outcome.passes as f64)));
    l.insert("anytime.moves", mean(&f(|p| p.outcome.moves as f64)));
    l.insert("anytime.restarts", mean(&f(|p| p.outcome.restarts as f64)));
    l.insert(
        "anytime.passes_per_s",
        f(|p| p.outcome.passes as f64).iter().sum::<f64>()
            / (f(|p| p.search_ms).iter().sum::<f64>() / 1e3),
    );
    l.insert("anytime.freeze_ms", median(&freeze));
    l.insert(
        "anytime.improving_frac",
        mean(&f(|p| {
            (p.outcome.trace.len().saturating_sub(1)) as f64 / p.outcome.passes.max(1) as f64
        })),
    );
    l.insert(
        "anytime.last_improve_frac",
        mean(&f(|p| {
            p.outcome.trace.last().map_or(0, |t| t.moves) as f64 / p.outcome.moves.max(1) as f64
        })),
    );
    l.insert(
        "anytime.gap_slots",
        mean(&f(|p| p.outcome.latency.saturating_sub(p.depth) as f64)),
    );
    l.insert("interference.pair_tests", mean(&pairs));
    l.insert("core.verify_ms", median(&f(|p| p.verify_ms)));
    l.insert(
        "obs.trace_overhead_frac",
        f(|p| p.wall_ms).iter().sum::<f64>() / p.wall_ms - 1.0,
    );
    l.insert("obs.dropped_events", rec.dropped_events() as f64);
    l.insert(
        "obs.span_coverage_frac",
        trace::coverage(&table.tree_self_us, &untraced_ms),
    );
    out
}
