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
//! Performance is measured end to end by `e2e-bench/run.py` at the
//! repository root, not by this crate.

use mlbs_core::SearchConfig;
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

    /// Builds the paper-grid sweep for a regime under the
    /// [`AdaptiveBudget`] search configuration.
    pub fn sweep(&self, regime: Regime) -> Sweep {
        let mut sweep = Sweep::paper_grid(regime, self.instances, self.seed);
        sweep.threads = self.threads;
        // One configuration serves every node count of the grid.
        sweep.search = AdaptiveBudget::default().config_for(regime, 0);
        sweep
    }
}

/// The search configuration of the figure sweeps and the benchmark.
///
/// Every regime and instance size runs the same configuration: the
/// default `branch_cap` of 64 and a state cap of 300 000 per search pass.
/// Dominance pruning, the wake-aware flood bound, phase folding and the
/// lazy complete-enumeration pass need no switch. Every paper-grid OPT
/// result either meets the root lower bound or is proved by the complete
/// pass, so none needs a wider beam (see `mlbs_core::search`).
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptiveBudget {}

impl AdaptiveBudget {
    /// The search configuration for one `nodes`-sized instance of `regime`;
    /// today it is the same for every regime and size.
    pub fn config_for(&self, _regime: Regime, _nodes: usize) -> SearchConfig {
        SearchConfig {
            max_states: 300_000,
            ..SearchConfig::default()
        }
    }
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
    use mlbs_core::{solve_gopt_with, solve_opt_with, BroadcastState};
    use wsn_dutycycle::WindowedRandom;
    use wsn_topology::deploy::SyntheticDeployment;

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
    fn adaptive_budget_is_one_configuration() {
        let b = AdaptiveBudget::default();
        let one = format!("{:?}", b.config_for(Regime::Sync, 50));
        for n in [50, 100, 150, 200, 250, 300] {
            for regime in [
                Regime::Sync,
                Regime::Duty { rate: 10 },
                Regime::Duty { rate: 50 },
            ] {
                assert_eq!(format!("{:?}", b.config_for(regime, n)), one);
            }
        }
        let c = b.config_for(Regime::Sync, 300);
        assert_eq!(c.max_states, 300_000);
        assert_eq!(c.branch_cap, SearchConfig::default().branch_cap);
        assert!(c.phase_fold && !c.exhaustive);
    }

    /// The adaptive configuration on duty pins: the phase folder engages
    /// on OPT at `(100 nodes, deployment 0, r = 50)` and `(200, 2, r = 10)`,
    /// and G-OPT proves itself exact on the latter.
    #[test]
    fn adaptive_budget_folds_duty_opt_and_proves_duty_gopt() {
        let mut substrate = BroadcastState::new();
        for (nodes, seed, rate) in [(100usize, 0u64, 50u32), (200, 2, 10)] {
            let (topo, src) = SyntheticDeployment::paper(nodes).sample(seed);
            let wake = WindowedRandom::new(topo.len(), rate, seed ^ 0x57a6_6e8d);
            let cfg = AdaptiveBudget::default().config_for(Regime::Duty { rate }, nodes);
            let opt = solve_opt_with(&topo, src, &wake, &cfg, &mut substrate);
            assert!(
                opt.stats.phase_classes > 0,
                "n={nodes} r={rate}: phase folder never engaged"
            );
            assert!(opt.stats.memo_entries > 0, "n={nodes} r={rate}: empty memo");
            if (nodes, seed, rate) == (200, 2, 10) {
                let gopt = solve_gopt_with(&topo, src, &wake, &cfg, &mut substrate);
                assert!(gopt.exact, "G-OPT lost its proof on the duty pin");
            }
        }
    }

    #[test]
    fn sweep_runs_the_adaptive_configuration() {
        let o = FigureOpts {
            instances: 1,
            seed: 1,
            threads: 1,
            csv: None,
        };
        let s = o.sweep(Regime::Duty { rate: 50 });
        assert_eq!(
            format!("{:?}", s.search),
            format!(
                "{:?}",
                AdaptiveBudget::default().config_for(Regime::Duty { rate: 50 }, 100)
            )
        );
    }
}
