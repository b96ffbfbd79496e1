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
//! * [`csv`] — plain-text emission for EXPERIMENTS.md and plotting.
//!
//! Determinism: every instance is derived from `(master_seed, nodes,
//! instance_index)` via SplitMix64, so a sweep is reproducible to the bit
//! regardless of thread scheduling.

mod algorithm;
mod energy;
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
pub use energy::{energy_of_schedule, EnergyReport, RadioEnergyModel};
pub use estimator::{replan_on_drift, simulate_acks, DriftReplan, LinkEstimator};
pub use fault::{replay_faulty, Fault, FaultParams, FaultScript, FaultyOutcome};
pub use lossy::{
    mean_coverage, mean_coverage_quality, replay_lossy, replay_lossy_quality, LossyOutcome,
};
pub use stats::Summary;
pub use sweep::{AlgorithmSummary, Sweep, SweepPointResult, SweepResult, TraceRow};
pub use wsn_phy::PhyModelSpec;

/// Derives a stream seed from a master seed and context labels
/// (SplitMix64 over the mixed words).
pub fn derive_seed(master: u64, a: u64, b: u64) -> u64 {
    let mut x =
        master ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
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
