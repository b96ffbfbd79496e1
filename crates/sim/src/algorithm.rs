//! The unified scheduler registry and single-instance runner.

use mlbs_core::{
    bounds, run_pipeline_model, solve_gopt_model, solve_opt_model, BroadcastState, EModel,
    EModelSelector, MaxReceiversSelector, PipelineConfig, SearchConfig,
};
use wsn_baselines::{schedule_cds_layered, schedule_layered_with, LayeredMode};
use wsn_dutycycle::{AlwaysAwake, Slot, WakeSchedule, WindowedRandom};
use wsn_phy::{PhyModel, PhyModelSpec};
use wsn_topology::{NodeId, Topology};

/// Timing regime of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// Round-based synchronous system.
    Sync,
    /// Duty-cycle system with cycle rate `r` slots (the paper evaluates
    /// `r = 10` and `r = 50`).
    Duty { rate: u32 },
}

impl Regime {
    /// Cycle rate (1 for the synchronous system).
    pub fn rate(&self) -> u32 {
        match self {
            Regime::Sync => 1,
            Regime::Duty { rate } => *rate,
        }
    }
}

/// Every scheduler the evaluation and the ablations exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// BFS-layered baseline: the 26-approximation (sync) / the
    /// 17-approximation (duty-cycle), per §V-A.
    Layered,
    /// Layered with per-slot re-coloring (ablation: barrier kept, stale
    /// coloring removed).
    LayeredRecolor,
    /// Fully rigid TDMA-like layered baseline (ablation: the weakest
    /// plausible reading of the prior art).
    LayeredPrecomputed,
    /// CDS-restricted layered baseline (extension; sync only).
    CdsLayered,
    /// Pipelined greedy without global awareness (ablation: pipeline kept,
    /// selection naive).
    GreedyPipeline,
    /// The paper's practical scheme: pipelined + E-model selection
    /// (Eq. 10).
    EModelPipeline,
    /// The localized (distributed) protocol of wsn-distributed — the
    /// paper's §VII future-work direction (extension).
    Localized,
    /// G-OPT (Eq. 7/8).
    GOpt,
    /// OPT (Eq. 5/6), possibly beam-limited by the search config.
    Opt,
    /// Anytime tabu/PARTIALCOL local search (wsn-anytime): greedy seed
    /// plus budgeted schedule-length compression. The sweep harness runs
    /// it under a deterministic iteration budget derived from
    /// [`SearchConfig::max_states`] so results stay bit-reproducible.
    Anytime,
}

impl Algorithm {
    /// `true` when the scheduler is conflict-model-aware: it colors on the
    /// instance's [`PhyModel`] conflict graph and packs channels under
    /// multi-channel models. The layered/CDS/localized baselines are
    /// defined on the protocol model only.
    pub fn supports_models(&self) -> bool {
        matches!(
            self,
            Algorithm::GreedyPipeline
                | Algorithm::EModelPipeline
                | Algorithm::GOpt
                | Algorithm::Opt
                | Algorithm::Anytime
        )
    }

    /// Display name matching the paper's figure legends where applicable.
    pub fn name(&self, regime: Regime) -> &'static str {
        match (self, regime) {
            (Algorithm::Layered, Regime::Sync) => "26-approx",
            (Algorithm::Layered, Regime::Duty { .. }) => "17-approx",
            (Algorithm::LayeredRecolor, _) => "layered-recolor",
            (Algorithm::LayeredPrecomputed, _) => "layered-precomputed",
            (Algorithm::CdsLayered, _) => "cds-layered",
            (Algorithm::GreedyPipeline, _) => "greedy-pipeline",
            (Algorithm::EModelPipeline, _) => "E-model",
            (Algorithm::Localized, _) => "localized",
            (Algorithm::GOpt, _) => "G-OPT",
            (Algorithm::Opt, _) => "OPT",
            (Algorithm::Anytime, _) => "anytime",
        }
    }

    /// The set the paper's Figures 3/4/6 plot.
    pub fn paper_set() -> [Algorithm; 4] {
        [
            Algorithm::Layered,
            Algorithm::Opt,
            Algorithm::GOpt,
            Algorithm::EModelPipeline,
        ]
    }
}

/// Metrics from one verified run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// End-to-end latency in rounds/slots (`t_e − t_s + 1`).
    pub latency: Slot,
    /// Number of transmissions.
    pub transmissions: usize,
    /// Source eccentricity of the instance (the `d` of the bounds).
    pub eccentricity: u32,
    /// `false` when a search hit a cap and returned a possibly suboptimal
    /// schedule; `None` for non-search algorithms.
    pub exact: Option<bool>,
    /// Search statistics (state counts, phase-fold classes, dominance
    /// prunes, …); `None` for non-search algorithms. This is how the
    /// claims binary threads per-run counters into `BENCH_search.json`.
    pub search_stats: Option<mlbs_core::SearchStats>,
    /// Theorem 1 bound for this instance and regime.
    pub opt_analysis: Slot,
    /// The baseline's analytical bound for this instance and regime
    /// (`26·d` sync, `17·k·d` duty).
    pub baseline_bound: Slot,
    /// Mean coverage of the schedule under the harness's reference loss
    /// regime ([`COVERAGE_LOSS`] iid per-delivery loss,
    /// [`COVERAGE_TRIALS`] seeded replays) — the §VI fragility of this
    /// run's schedule, reported first-class so reliability shows up in
    /// every sweep. `1.0` exactly for loss-proof schedules.
    pub mean_coverage: f64,
    /// The anytime tier's improving-bound trace (elapsed ms + move count
    /// per accepted incumbent); `None` for every other algorithm. This is
    /// what [`crate::traces_to_csv`] flattens so time-to-quality curves
    /// are plottable without re-running.
    pub trace: Option<Vec<wsn_anytime::TracePoint>>,
}

/// Per-delivery loss probability of the reference coverage metric.
pub const COVERAGE_LOSS: f64 = 0.1;
/// Seeded lossy replays averaged into [`RunResult::mean_coverage`].
pub const COVERAGE_TRIALS: usize = 8;

/// Runs `algorithm` on one instance under the paper's single-channel
/// protocol model. The produced schedule is always passed through the
/// independent verifier; a verification failure is a bug and panics.
///
/// `wake_seed` parameterizes the duty-cycle schedule (ignored for
/// [`Regime::Sync`]); all algorithms given the same seed see the same
/// wake-ups, which is what makes per-instance comparisons meaningful.
pub fn run_instance(
    topo: &Topology,
    source: NodeId,
    regime: Regime,
    algorithm: Algorithm,
    wake_seed: u64,
    search: &SearchConfig,
) -> RunResult {
    run_instance_with(
        topo,
        source,
        regime,
        algorithm,
        wake_seed,
        search,
        &PhyModelSpec::protocol().build(topo),
        &mut BroadcastState::new(),
    )
}

/// As [`run_instance`], under an already-built conflict model ([`PhyModel`]
/// — protocol, SINR, K channels; see [`PhyModelSpec::build`]) and with a
/// caller-provided [`BroadcastState`]. The sweep workers build the model
/// once per job (SINR gain tables cost `O(n²)`) and hold one substrate each,
/// threading both through every algorithm instead of rebuilding per run.
/// The produced schedule is verified under `model`.
///
/// # Panics
///
/// Panics when `algorithm` is a protocol-only baseline
/// ([`Algorithm::supports_models`] is `false`) and `model` is not the
/// default single-channel protocol model.
#[allow(clippy::too_many_arguments)]
pub fn run_instance_with(
    topo: &Topology,
    source: NodeId,
    regime: Regime,
    algorithm: Algorithm,
    wake_seed: u64,
    search: &SearchConfig,
    model: &PhyModel,
    state: &mut BroadcastState,
) -> RunResult {
    assert!(
        model.is_default_protocol() || algorithm.supports_models(),
        "{algorithm:?} is defined on the protocol model only"
    );
    match regime {
        Regime::Sync => run_with(
            topo,
            source,
            regime,
            algorithm,
            &AlwaysAwake,
            model,
            search,
            state,
        ),
        Regime::Duty { rate } => {
            let wake = WindowedRandom::new(topo.len(), rate, wake_seed);
            run_with(topo, source, regime, algorithm, &wake, model, search, state)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_with<S: WakeSchedule>(
    topo: &Topology,
    source: NodeId,
    regime: Regime,
    algorithm: Algorithm,
    wake: &S,
    model: &PhyModel,
    search: &SearchConfig,
    state: &mut BroadcastState,
) -> RunResult {
    let start = search.start_from;
    let mut exact = None;
    let mut search_stats = None;
    let mut trace = None;
    let schedule = match algorithm {
        Algorithm::Layered => {
            schedule_layered_with(topo, source, wake, start, LayeredMode::FixedColors, state)
        }
        Algorithm::LayeredRecolor => {
            schedule_layered_with(topo, source, wake, start, LayeredMode::Recolor, state)
        }
        Algorithm::LayeredPrecomputed => {
            schedule_layered_with(topo, source, wake, start, LayeredMode::Precomputed, state)
        }
        Algorithm::CdsLayered => {
            assert!(
                matches!(regime, Regime::Sync),
                "the CDS baseline is defined for the synchronous system"
            );
            schedule_cds_layered(topo, source)
        }
        Algorithm::GreedyPipeline => run_pipeline_model(
            topo,
            source,
            wake,
            model,
            &mut MaxReceiversSelector,
            &PipelineConfig { start_from: start },
            state,
        ),
        Algorithm::EModelPipeline => {
            let em = EModel::build(topo, wake);
            run_pipeline_model(
                topo,
                source,
                wake,
                model,
                &mut EModelSelector::new(&em),
                &PipelineConfig { start_from: start },
                state,
            )
        }
        Algorithm::Localized => {
            let em = EModel::build(topo, wake);
            wsn_distributed::localized_broadcast_with(topo, source, wake, &em, start, state)
                .schedule
        }
        Algorithm::GOpt => {
            let out = solve_gopt_model(topo, source, wake, model, search, state);
            exact = Some(out.exact);
            search_stats = Some(out.stats);
            out.schedule
        }
        Algorithm::Opt => {
            let out = solve_opt_model(topo, source, wake, model, search, state);
            exact = Some(out.exact);
            search_stats = Some(out.stats);
            out.schedule
        }
        Algorithm::Anytime => {
            // Deterministic iteration budget (never wall-clock here: the
            // sweep guarantees thread-count-independent results) and a
            // seed derived from stable instance features only —
            // `topo.token()` is an allocation counter and must not leak
            // into decisions.
            let cfg = wsn_anytime::AnytimeConfig {
                budget: wsn_anytime::Budget::Iterations(
                    (search.max_states as u64 / 16).max(10_000),
                ),
                seed: 0x1CC5_2012 ^ u64::from(source.0) ^ ((topo.len() as u64) << 32),
                start_from: start,
                ..wsn_anytime::AnytimeConfig::default()
            };
            let out = wsn_anytime::solve_anytime(topo, source, wake, model, &cfg);
            exact = Some(out.proved_optimal);
            trace = Some(out.trace);
            out.schedule
        }
    };

    schedule
        .verify_with_model(topo, wake, model)
        .unwrap_or_else(|e| {
            panic!(
                "{} produced an invalid schedule: {e}",
                algorithm.name(regime)
            )
        });

    let ecc = bounds::source_eccentricity(topo, source);
    let (opt_analysis, baseline_bound) = match regime {
        Regime::Sync => (bounds::opt_bound_sync(ecc), bounds::bound_26_approx(ecc)),
        Regime::Duty { rate } => {
            let k = bounds::max_neighbor_wait(topo, wake);
            (
                bounds::opt_bound_duty(ecc, rate),
                bounds::bound_17_approx(ecc, k),
            )
        }
    };

    // Reference coverage metric: seeded on stable instance features only
    // (like the anytime seed above — `topo.token()` must not leak into
    // results).
    let coverage_seed = 0xC0FE_11A6 ^ u64::from(source.0) ^ ((topo.len() as u64) << 32);
    let mean_coverage = crate::lossy::mean_coverage(
        topo,
        &schedule,
        COVERAGE_LOSS,
        COVERAGE_TRIALS,
        coverage_seed,
    );

    RunResult {
        latency: schedule.latency(),
        transmissions: schedule.transmission_count(),
        eccentricity: ecc,
        exact,
        search_stats,
        opt_analysis,
        baseline_bound,
        mean_coverage,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_topology::deploy;

    fn small_instance() -> (Topology, NodeId) {
        // Seed chosen (against the rand shim's stream) so the E-model
        // heuristic beats the layered baseline on this instance; the
        // heuristic offers no per-instance guarantee, only the trend.
        deploy::SyntheticDeployment::paper(60).sample(4)
    }

    #[test]
    fn all_sync_algorithms_run_and_verify() {
        let (topo, src) = small_instance();
        let cfg = SearchConfig::default();
        for alg in [
            Algorithm::Layered,
            Algorithm::LayeredRecolor,
            Algorithm::CdsLayered,
            Algorithm::GreedyPipeline,
            Algorithm::EModelPipeline,
            Algorithm::GOpt,
            Algorithm::Opt,
            Algorithm::Anytime,
        ] {
            let r = run_instance(&topo, src, Regime::Sync, alg, 0, &cfg);
            assert!(r.latency >= 1, "{alg:?}");
            assert!((5..=8).contains(&r.eccentricity));
        }
    }

    #[test]
    fn anytime_is_sandwiched_and_deterministic() {
        // OPT ≤ anytime (verified schedules only) and anytime never loses
        // to the greedy layered baseline it seeds against; identical
        // iteration budgets reproduce identical results, pinned as
        // (latency, transmissions, moves of the last accepted incumbent).
        const PINS: [(u64, usize, u64); 4] = [(6, 19, 0), (5, 17, 13), (6, 16, 247), (8, 18, 0)];
        let cfg = SearchConfig::default();
        for (seed, pin) in (0..4u64).zip(PINS) {
            let (topo, src) = deploy::SyntheticDeployment::paper(60).sample(seed);
            let opt = run_instance(&topo, src, Regime::Sync, Algorithm::Opt, 0, &cfg);
            let any = run_instance(&topo, src, Regime::Sync, Algorithm::Anytime, 0, &cfg);
            let again = run_instance(&topo, src, Regime::Sync, Algorithm::Anytime, 0, &cfg);
            if opt.exact == Some(true) {
                assert!(opt.latency <= any.latency, "seed {seed}: OPT > anytime");
            }
            assert_eq!(any.latency, again.latency, "seed {seed}: nondeterministic");
            assert_eq!(any.transmissions, again.transmissions);
            let moves = any.trace.as_ref().and_then(|t| t.last()).map(|p| p.moves);
            assert_eq!(
                (any.latency, any.transmissions, moves),
                (pin.0, pin.1, Some(pin.2)),
                "seed {seed}: anytime arm drifted"
            );
        }
    }

    #[test]
    fn duty_algorithms_run_and_verify() {
        let (topo, src) = small_instance();
        let cfg = SearchConfig {
            max_states: 200_000,
            ..SearchConfig::default()
        };
        for alg in [
            Algorithm::Layered,
            Algorithm::GreedyPipeline,
            Algorithm::EModelPipeline,
            Algorithm::GOpt,
            Algorithm::Anytime,
        ] {
            let r = run_instance(&topo, src, Regime::Duty { rate: 10 }, alg, 7, &cfg);
            assert!(r.latency >= 1, "{alg:?}");
        }
    }

    #[test]
    fn optimality_ordering_holds() {
        // OPT ≤ G-OPT ≤ E-model per instance (hard guarantees: OPT's
        // branch set ⊆-dominates G-OPT's, and G-OPT minimizes exactly over
        // the classes the E-model pipeline picks heuristically), and
        // everything ≤ its analytical bound per Theorem 1. The heuristic
        // E-model carries no per-instance guarantee against the layered
        // baseline, so that comparison is aggregated over a seed set
        // instead of pinned to one RNG-stream-sensitive instance.
        let cfg = SearchConfig::default();
        let mut em_total = 0u64;
        let mut base_total = 0u64;
        for seed in 0..6u64 {
            let (topo, src) = deploy::SyntheticDeployment::paper(60).sample(seed);
            let opt = run_instance(&topo, src, Regime::Sync, Algorithm::Opt, 0, &cfg);
            let gopt = run_instance(&topo, src, Regime::Sync, Algorithm::GOpt, 0, &cfg);
            let em = run_instance(&topo, src, Regime::Sync, Algorithm::EModelPipeline, 0, &cfg);
            let base = run_instance(&topo, src, Regime::Sync, Algorithm::Layered, 0, &cfg);
            assert!(opt.latency <= gopt.latency, "seed {seed}: OPT > G-OPT");
            if gopt.exact == Some(true) {
                assert!(gopt.latency <= em.latency, "seed {seed}: G-OPT > E-model");
            }
            if opt.exact == Some(true) {
                assert!(opt.latency <= opt.opt_analysis, "Theorem 1 violated");
            }
            em_total += em.latency;
            base_total += base.latency;
        }
        assert!(
            em_total <= base_total,
            "E-model ({em_total}) should beat the layered baseline ({base_total}) on average"
        );
    }

    #[test]
    fn paper_names() {
        assert_eq!(Algorithm::Layered.name(Regime::Sync), "26-approx");
        assert_eq!(
            Algorithm::Layered.name(Regime::Duty { rate: 10 }),
            "17-approx"
        );
        assert_eq!(Algorithm::EModelPipeline.name(Regime::Sync), "E-model");
    }

    #[test]
    fn duty_latency_dominates_sync() {
        let (topo, src) = small_instance();
        let cfg = SearchConfig::default();
        let sync = run_instance(&topo, src, Regime::Sync, Algorithm::EModelPipeline, 3, &cfg);
        let duty = run_instance(
            &topo,
            src,
            Regime::Duty { rate: 10 },
            Algorithm::EModelPipeline,
            3,
            &cfg,
        );
        assert!(duty.latency >= sync.latency);
    }
}
