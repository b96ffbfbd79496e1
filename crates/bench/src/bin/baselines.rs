//! Baseline-strength ablation: how much of the reported improvement depends
//! on how rigidly the prior-art layered schemes are implemented.
//!
//! Three readings of the 26-approximation, from weakest to strongest:
//! `Precomputed` (per-layer TDMA — every color holds its turn),
//! `FixedColors` (colors fire in sequence, redundant members back out),
//! `Recolor` (per-slot re-coloring inside the layer). The paper's "~70%
//! improvement" claim falls between our Precomputed and FixedColors
//! readings.

use mlbs_core::SearchConfig;
use wsn_bench::FigureOpts;
use wsn_sim::{derive_seed, run_instance, Algorithm, Regime};
use wsn_topology::deploy::SyntheticDeployment;

fn main() {
    let opts = FigureOpts::from_args();
    let cfg = SearchConfig::default();
    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>8} {:>8} {:>22}",
        "nodes", "precomputed", "fixed", "recolor", "cds", "OPT", "OPT gain (pre/fixed)"
    );
    for n in [50usize, 100, 150, 200, 250, 300] {
        let mut sums = [0.0f64; 5];
        for i in 0..opts.instances as u64 {
            let (topo, src) =
                SyntheticDeployment::paper(n).sample(derive_seed(opts.seed, n as u64, i));
            for (k, alg) in [
                Algorithm::LayeredPrecomputed,
                Algorithm::Layered,
                Algorithm::LayeredRecolor,
                Algorithm::CdsLayered,
                Algorithm::Opt,
            ]
            .iter()
            .enumerate()
            {
                sums[k] += run_instance(&topo, src, Regime::Sync, *alg, 7, &cfg).latency as f64;
            }
        }
        let m = opts.instances as f64;
        println!(
            "{:<8} {:>12.1} {:>10.1} {:>10.1} {:>8.1} {:>8.1} {:>10.0}% / {:.0}%",
            n,
            sums[0] / m,
            sums[1] / m,
            sums[2] / m,
            sums[3] / m,
            sums[4] / m,
            100.0 * (1.0 - sums[4] / sums[0]),
            100.0 * (1.0 - sums[4] / sums[1]),
        );
    }
}
