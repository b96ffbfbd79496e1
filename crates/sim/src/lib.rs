//! Simulation and experiment harness.
//!
//! Reproduces the paper's custom-simulator methodology (§V): draw
//! eccentricity-constrained uniform deployments at a sweep of densities,
//! run every scheduler on the *same* instances (same topology, same source,
//! same wake schedules), verify each produced schedule independently, and
//! aggregate latency statistics per algorithm and density.
//!
//! * [`Algorithm`] — the unified scheduler registry (baselines, OPT, G-OPT,
//!   E-model, ablation variants);
//! * [`Regime`] — round-based synchronous vs duty-cycle with rate `r`;
//! * [`run_instance`] — one (topology, source, regime, algorithm) run with
//!   verification and metric extraction;
//! * [`Sweep`] — the Figure 3/4/6 experiment: densities × instances ×
//!   algorithms, fanned out over worker threads (results are independent
//!   of worker count — the guide's "parallelize the embarrassingly
//!   parallel outer loop" rule);
//! * [`csv`] — plain-text emission for plotting and tables.
//!
//! Determinism: every instance is derived from `(master_seed, nodes,
//! instance_index)` via SplitMix64, so a sweep is reproducible to the bit
//! regardless of thread scheduling.

mod algorithm;
mod estimator;
mod fault;
mod lossy;
mod stats;
mod sweep;

pub mod csv;

pub use algorithm::{
    run_instance, run_instance_with, Algorithm, Regime, RunResult, COVERAGE_LOSS, COVERAGE_TRIALS,
};
pub use csv::{sweep_to_csv, sweep_to_table, traces_to_csv};
pub use estimator::{simulate_acks, LinkEstimator};
pub use fault::{replay_faulty, Fault, FaultParams, FaultScript, FaultyOutcome};
pub use lossy::{
    mean_coverage, mean_coverage_quality, replay_lossy, replay_lossy_quality, LossyOutcome,
};
pub use stats::Summary;
pub use sweep::{AlgorithmSummary, Sweep, SweepPointResult, SweepResult, TraceRow};

/// SplitMix64's increment, the golden ratio in 64 bits.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Derives a stream seed from a master seed and context labels
/// (SplitMix64's output mix over the mixed words). It is also the
/// order-free per-entity hash of the fault scripts.
pub fn derive_seed(master: u64, a: u64, b: u64) -> u64 {
    mix64(master ^ a.wrapping_mul(GOLDEN_GAMMA) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
}

/// SplitMix64 step: advances `state` and returns the next word. The
/// Monte-Carlo replays (lossy, fault and ACK draws) each run one stream,
/// which keeps them deterministic without threading an external RNG
/// through the replay.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// SplitMix64's output mix.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A draw in `[0, 1)` from the top 53 bits of `word`.
pub(crate) fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_across_context() {
        let s = derive_seed(42, 1, 2);
        assert_ne!(s, derive_seed(42, 1, 3));
        assert_ne!(s, derive_seed(42, 2, 2));
        assert_ne!(s, derive_seed(43, 1, 2));
        assert_eq!(s, derive_seed(42, 1, 2), "deterministic");
    }
}
