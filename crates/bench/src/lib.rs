//! Benchmark harness regenerating every table and figure of the paper.
//!
//! One binary per exhibit:
//!
//! | binary   | exhibit | what it prints |
//! |----------|---------|----------------|
//! | `fig3`   | Figure 3 | `P(A)` vs density, synchronous: 26-approx, OPT, G-OPT, E-model, OPT-analysis |
//! | `fig4`   | Figure 4 | `P(A)` vs density, duty cycle `r = 10` |
//! | `fig5`   | Figure 5 | analytical bounds, duty cycle `r = 10` |
//! | `fig6`   | Figure 6 | `P(A)` vs density, duty cycle `r = 50` |
//! | `fig7`   | Figure 7 | analytical bounds, duty cycle `r = 50` |
//! | `table2` | Table II | `M` recursion trace, Figure 2(a), synchronous |
//! | `table3` | Table III | `M` recursion trace, Figure 1, synchronous |
//! | `table4` | Table IV | `M` recursion trace, Figure 2(e), duty cycle |
//! | `claims` | §V-C | the quantitative claims checked against measurements |
//!
//! Every binary accepts `--instances N`, `--seed S`, `--threads T` and
//! `--csv PATH` (figures only) and prints a fixed-width table to stdout.
//! Criterion micro/meso benches live in `benches/`.

use mlbs_core::{BranchOrder, SearchConfig};
use wsn_sim::{Algorithm, Regime, Sweep};

/// Command-line options shared by the figure binaries.
#[derive(Clone, Debug)]
pub struct FigureOpts {
    /// Instances per density point.
    pub instances: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Optional CSV output path.
    pub csv: Option<String>,
}

impl Default for FigureOpts {
    fn default() -> Self {
        FigureOpts {
            instances: 25,
            seed: 20120910, // ICPP 2012 presentation date flavour
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            csv: None,
        }
    }
}

impl FigureOpts {
    /// Parses `--instances N --seed S --threads T --csv PATH` from argv,
    /// ignoring unknown flags.
    pub fn from_args() -> Self {
        let mut opts = FigureOpts::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--instances" => {
                    opts.instances = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .expect("--instances needs a number");
                    i += 2;
                }
                "--seed" => {
                    opts.seed = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs a number");
                    i += 2;
                }
                "--threads" => {
                    opts.threads = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .expect("--threads needs a number");
                    i += 2;
                }
                "--csv" => {
                    opts.csv = Some(args.get(i + 1).expect("--csv needs a path").clone());
                    i += 2;
                }
                _ => i += 1,
            }
        }
        opts
    }

    /// Builds the paper-grid sweep for a regime, with per-node-count
    /// adaptive search budgets.
    pub fn sweep(&self, regime: Regime) -> Sweep {
        let mut sweep = Sweep::paper_grid(regime, self.instances, self.seed);
        sweep.threads = self.threads;
        let budget = AdaptiveBudget::default();
        sweep.search = search_for(regime);
        sweep.search_overrides = sweep
            .node_counts
            .iter()
            .map(|&n| (n, budget.config_for(regime, n)))
            .collect();
        sweep
    }
}

/// Per-instance search budgets for the paper grid.
///
/// Sync instances keep the default configuration (the pinned behavior).
/// Duty instances get:
///
/// * `max_states = 300_000`, a 2 s target at 150 states/ms;
/// * a `branch_cap` that *grows* as instances shrink: the phase-folded,
///   dominance-pruned search affords full enumeration on small duty
///   instances, recovering `exact: true` where the old constant caps
///   forced a beam;
/// * the frontier-weighted branch ordering with 4× overscan, so when the
///   beam does truncate it keeps the best-scored branches;
/// * phase folding and dominance pruning switched on.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptiveBudget {}

impl AdaptiveBudget {
    /// The search configuration for one `nodes`-sized instance of `regime`.
    pub fn config_for(&self, regime: Regime, nodes: usize) -> SearchConfig {
        match regime {
            Regime::Sync => SearchConfig::default(),
            Regime::Duty { .. } => SearchConfig {
                branch_cap: match nodes {
                    0..=100 => 48,
                    101..=200 => 32,
                    _ => 24,
                },
                max_states: 300_000,
                overscan: 4,
                branch_order: BranchOrder::FrontierWeighted,
                phase_fold: true,
                dominance: true,
                ..SearchConfig::default()
            },
        }
    }
}

/// Search configuration tuned per regime at the paper grid's largest
/// instance size — kept as the sweep-wide fallback; the per-node-count
/// adaptive configurations come from [`AdaptiveBudget::config_for`] via
/// `Sweep::search_overrides`.
pub fn search_for(regime: Regime) -> SearchConfig {
    AdaptiveBudget::default().config_for(regime, 300)
}

/// Runs a figure sweep, prints the table, optionally writes CSV.
pub fn run_figure(name: &str, regime: Regime, opts: &FigureOpts) -> wsn_sim::SweepResult {
    eprintln!(
        "[{name}] sweeping {:?}, {} instances/point, seed {}, {} threads",
        regime, opts.instances, opts.seed, opts.threads
    );
    let result = opts.sweep(regime).run();
    println!("{name}: mean end-to-end latency P(A) (rounds/slots)\n");
    println!("{}", wsn_sim::csv::sweep_to_table(&result));
    if result.inexact_runs > 0 {
        println!(
            "note: {} search runs hit a cap and report best-found latency",
            result.inexact_runs
        );
    }
    if let Some(path) = &opts.csv {
        std::fs::write(path, wsn_sim::csv::sweep_to_csv(&result))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("[{name}] wrote {path}");
    }
    result
}

/// The analytical-bound companion figures (5 and 7): per density, the mean
/// Theorem 1 bound `2r(d+2)` against the 17-approximation bound `17·k·d`
/// measured on the same instances.
pub fn run_bounds_figure(name: &str, rate: u32, opts: &FigureOpts) {
    let regime = Regime::Duty { rate };
    // Bounds need no scheduler runs — measure d and k per instance only.
    // The greedy pipeline is the cheapest way to thread instance metrics
    // through the sweep machinery.
    let mut sweep = opts.sweep(regime);
    sweep.algorithms = vec![Algorithm::GreedyPipeline];
    let result = sweep.run();
    println!("{name}: analytical upper bounds, duty cycle r = {rate}\n");
    println!(
        "{:<10} {:<9} {:>22} {:>22} {:>12}",
        "nodes", "density", "OPT-analysis 2r(d+2)", "17-approx bound 17kd", "mean ecc d"
    );
    for p in &result.points {
        println!(
            "{:<10} {:<9.4} {:>22.1} {:>22.1} {:>12.2}",
            p.nodes,
            p.density,
            p.opt_analysis.mean(),
            p.baseline_bound.mean(),
            p.eccentricity.mean()
        );
    }
    if let Some(path) = &opts.csv {
        std::fs::write(path, wsn_sim::csv::sweep_to_csv(&result))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("[{name}] wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts_are_sane() {
        let o = FigureOpts::default();
        assert!(o.instances > 0);
        assert!(o.threads >= 1);
        assert!(o.csv.is_none());
    }

    #[test]
    fn sweep_construction_respects_opts() {
        let o = FigureOpts {
            instances: 3,
            seed: 1,
            threads: 2,
            csv: None,
        };
        let s = o.sweep(Regime::Sync);
        assert_eq!(s.instances, 3);
        assert_eq!(s.master_seed, 1);
        assert_eq!(s.threads, 2);
        assert_eq!(s.node_counts, vec![50, 100, 150, 200, 250, 300]);
    }

    #[test]
    fn duty_search_is_capped() {
        let c = search_for(Regime::Duty { rate: 10 });
        assert!(c.branch_cap < SearchConfig::default().branch_cap);
    }

    #[test]
    fn adaptive_budget_scales_with_instance_size() {
        let b = AdaptiveBudget::default();
        let small = b.config_for(Regime::Duty { rate: 50 }, 100);
        let large = b.config_for(Regime::Duty { rate: 50 }, 300);
        assert!(
            small.branch_cap > large.branch_cap,
            "small instances afford wider enumeration"
        );
        assert!(small.dominance && small.phase_fold);
        assert_eq!(small.overscan, 4);
        // The duty state cap is one constant at every paper-grid size.
        for n in [50, 100, 150, 200, 250, 300] {
            for rate in [10, 50] {
                assert_eq!(b.config_for(Regime::Duty { rate }, n).max_states, 300_000);
            }
        }
        // Sync keeps the pinned defaults.
        assert_eq!(
            b.config_for(Regime::Sync, 100).branch_cap,
            SearchConfig::default().branch_cap
        );
        assert!(!b.config_for(Regime::Sync, 100).dominance);
    }

    #[test]
    fn sweep_carries_adaptive_overrides() {
        let o = FigureOpts {
            instances: 1,
            seed: 1,
            threads: 1,
            csv: None,
        };
        let s = o.sweep(Regime::Duty { rate: 50 });
        assert_eq!(s.search_overrides.len(), s.node_counts.len());
        assert_eq!(s.search_for_nodes(100).branch_cap, 48);
        assert_eq!(s.search_for_nodes(300).branch_cap, 24);
    }
}
