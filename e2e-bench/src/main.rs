//! The repository benchmark: one process runs one workload and prints
//! every metric by name with its unit, then one JSON result line.
//!
//! ```text
//! e2e-bench --workload <paper-grid|plan-scaled|serve-10k> --seed N \
//!           --seconds S --trace <0|1> [--out DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` first runs the same untraced pass, then replays the same
//! work with a `wsn_obs` recorder installed and the benchmark's own spans
//! open around every layer call, and reports the per-layer metrics, the
//! tracing overhead and the span coverage of the blocking path. The
//! Chrome trace and the per-span table go to `--out`.

mod alloc;
mod paper_grid;
mod plan_scaled;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_slots", "slots"),
    ("solve_p50_ms", "ms"),
    ("solves_per_s", "1/s"),
];

/// Per-layer metrics of the traced run. Every workload prints every name;
/// a layer the workload does not call reports 0 (no work, no time).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-level figures that only some workloads have (untraced pass).
    ("solve_p90_ms", "ms"),
    ("exact_frac", "frac"),
    ("reply_p50_ms", "ms"),
    ("reply_p95_ms", "ms"),
    ("on_time_frac", "frac"),
    // topology
    ("topology.sample_ms", "ms"),
    ("topology.edges", "count"),
    ("topology.bytes_per_node", "B"),
    // anytime
    ("anytime.greedy_ms", "ms"),
    ("anytime.search_ms", "ms"),
    ("anytime.passes", "count"),
    ("anytime.moves", "count"),
    ("anytime.restarts", "count"),
    ("anytime.passes_per_s", "1/s"),
    ("anytime.freeze_ms", "ms"),
    ("anytime.improving_frac", "frac"),
    ("anytime.last_improve_frac", "frac"),
    ("anytime.gap_slots", "slots"),
    // interference
    ("interference.pair_tests", "count"),
    ("interference.rows_built", "count"),
    ("interference.rows_reused", "count"),
    ("interference.reuse_frac", "frac"),
    // core
    ("core.verify_ms", "ms"),
    ("core.opt_ms.p50", "ms"),
    ("core.opt_ms.p90", "ms"),
    ("core.gopt_ms.p50", "ms"),
    ("core.gopt_ms.p90", "ms"),
    ("core.emodel_ms.p50", "ms"),
    ("core.emodel_ms.p90", "ms"),
    ("core.states", "count"),
    ("core.memo_hits", "count"),
    ("core.dominance_prunes", "count"),
    ("core.phase_classes", "count"),
    ("core.state_cap_hits", "count"),
    ("core.opt_latency_slots", "slots"),
    ("core.gopt_latency_slots", "slots"),
    ("core.emodel_latency_slots", "slots"),
    // bitset
    ("bitset.interned_sets", "count"),
    // baselines
    ("baselines.layered_ms", "ms"),
    ("baselines.layered_latency_slots", "slots"),
    // serve
    ("serve.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.reply_ms.greedy.p50", "ms"),
    ("serve.reply_ms.greedy.p95", "ms"),
    ("serve.reply_ms.warm.p50", "ms"),
    ("serve.reply_ms.warm.p95", "ms"),
    ("serve.reply_ms.serial.p50", "ms"),
    ("serve.reply_ms.serial.p95", "ms"),
    ("serve.reply_ms.portfolio.p50", "ms"),
    ("serve.reply_ms.portfolio.p95", "ms"),
    ("serve.reply_ms.churn.p50", "ms"),
    ("serve.reply_ms.churn.p95", "ms"),
    ("serve.reply_ms.observe.p50", "ms"),
    ("serve.reply_ms.observe.p95", "ms"),
    ("serve.late_frac.greedy", "frac"),
    ("serve.late_frac.warm", "frac"),
    ("serve.late_frac.serial", "frac"),
    ("serve.late_frac.portfolio", "frac"),
    ("serve.late_frac.churn", "frac"),
    ("serve.late_frac.observe", "frac"),
    ("serve.attempted.greedy", "count"),
    ("serve.attempted.warm", "count"),
    ("serve.attempted.serial", "count"),
    ("serve.attempted.portfolio", "count"),
    ("serve.attempted.churn", "count"),
    ("serve.attempted.observe", "count"),
    ("serve.failed.greedy", "count"),
    ("serve.failed.warm", "count"),
    ("serve.failed.serial", "count"),
    ("serve.failed.portfolio", "count"),
    ("serve.failed.churn", "count"),
    ("serve.failed.observe", "count"),
    ("serve.solve_ms.ladder.p50", "ms"),
    ("serve.solve_ms.repair.p50", "ms"),
    ("serve.ladder_solves", "count"),
    ("serve.repair_solves", "count"),
    ("serve.service_us.p50", "us"),
    ("serve.service_us.p99", "us"),
    ("serve.reschedule_us.p50", "us"),
    ("serve.reschedule_us.p99", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.gen_lag_ms.p99", "ms"),
    ("serve.shed", "count"),
    ("serve.shard_restarts", "count"),
    ("serve.tier.greedy", "count"),
    ("serve.tier.warm", "count"),
    ("serve.tier.serial", "count"),
    ("serve.tier.portfolio", "count"),
    // sim
    ("sim.replan_frac", "frac"),
    // obs
    ("obs.trace_overhead_frac", "frac"),
    ("obs.dropped_events", "count"),
    ("obs.span_coverage_frac", "frac"),
];

/// The listed per-layer name equal to `name`.
pub fn layer_key(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|&n| n == name)
        .unwrap_or_else(|| panic!("{name} is not a listed per-layer metric"))
}

/// How much more work a traced run of paper-grid or plan-scaled pairs up
/// than an untraced run measures. The host's speed differs by about 9%
/// between the back-to-back untraced and traced runs of one plan, so the
/// coverage's median needs about twice the pairs of one run to sit within
/// about 2% of its true value.
pub const TRACE_WORK: f64 = 2.0;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (explicit failures).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// End-to-end metrics of the untraced pass.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (trace runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_build/e2e-bench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "paper-grid" => paper_grid::run(&args),
        "plan-scaled" => plan_scaled::run(&args),
        "serve-10k" => serve::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    out.e2e.insert("peak_rss_mb", peak_rss_mb());

    println!(
        "host  available_parallelism={} profile={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );

    for (name, unit) in END_TO_END {
        println!(
            "e2e   {name:<34} {:>14.4} {unit}",
            out.e2e.get(name).copied().unwrap_or(0.0)
        );
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            println!(
                "layer {name:<34} {:>14.4} {unit}",
                out.layers.get(name).copied().unwrap_or(0.0)
            );
        }
    }
    if args.trace {
        // The traced-run check: the benchmark's spans along the blocking
        // path cover the untraced wall time to within 5%, and the recorder
        // dropped nothing. A failed check makes the run incorrect.
        let coverage = out
            .layers
            .get("obs.span_coverage_frac")
            .copied()
            .unwrap_or(0.0);
        let dropped = out.layers.get("obs.dropped_events").copied().unwrap_or(0.0);
        let verdict = |ok: bool| if ok { "PASS" } else { "FAIL" };
        let covered = (coverage - 1.0).abs() <= 0.05;
        println!("check span_coverage {coverage:.4} {}", verdict(covered));
        println!("check dropped_events {dropped} {}", verdict(dropped == 0.0));
        if !covered {
            out.violations.push(format!(
                "span coverage {coverage:.4} of the untraced wall time is not within 5%"
            ));
        }
        if dropped != 0.0 {
            out.violations
                .push(format!("the traced run dropped {dropped} events"));
        }
    }
    println!(
        "gate  attempted={} failed={} violations={}",
        out.attempted,
        out.failed,
        out.violations.len()
    );
    for v in out.violations.iter().take(10) {
        println!("gate  VIOLATION {v}");
    }

    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let source = if args.trace { &out.layers } else { &out.e2e };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = source.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                stats::json_num(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.violations.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}
