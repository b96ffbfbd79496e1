//! Substrate-refactor regression pins.
//!
//! The incremental conflict substrate (interned memo keys, delta-built
//! conflict graphs, shared scratch) must be a pure performance change:
//! `solve_opt` / `solve_gopt` over the seeded paper deployments must
//! report exactly the latencies and `exact` flags the from-scratch
//! implementation produced (values recorded from the pre-substrate tree),
//! and the search statistics must show the promised ≥2× reduction in
//! conflict-graph row computations.
//!
//! The duty-regime pins at the bottom cover the phase-folded search under
//! the adaptive budget: exact latencies, live fold counters, and the
//! *measured* duty-cycle row-accounting shape (reuse below builds — the
//! scoping the `conflict_rows_reused` doc promises).

use mlbs::bench::AdaptiveBudget;
use mlbs::coloring::BroadcastState;
use mlbs::core::{solve_gopt_with, solve_opt_with};
use mlbs::prelude::*;

/// `(nodes, deployment seed, OPT latency, OPT exact, G-OPT latency)`
/// recorded on the pre-substrate implementation (beam OPT at the default
/// `branch_cap`, hence `exact = false` throughout; G-OPT is exact on all
/// of these).
const PINNED: &[(usize, u64, u64, bool, u64)] = &[
    (60, 4, 6, false, 7),
    (80, 11, 7, false, 8),
    (100, 0, 8, false, 8),
    (100, 1, 7, false, 7),
    (100, 2, 7, false, 7),
    (300, 0, 6, false, 6),
    (300, 1, 7, false, 7),
];

#[test]
fn solve_opt_latencies_unchanged_on_seeded_paper_instances() {
    // One substrate threaded through every instance, exactly as a sweep
    // worker would — reuse across topologies must not leak state.
    let mut substrate = BroadcastState::new();
    for &(n, seed, opt_latency, opt_exact, gopt_latency) in PINNED {
        let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
        let opt = solve_opt_with(
            &topo,
            src,
            &AlwaysAwake,
            &SearchConfig::default(),
            &mut substrate,
        );
        assert_eq!(
            (opt.latency, opt.exact),
            (opt_latency, opt_exact),
            "n={n} seed={seed}: OPT result drifted from the pre-substrate pin"
        );
        opt.schedule.verify(&topo, &AlwaysAwake).unwrap();

        let gopt = solve_gopt_with(
            &topo,
            src,
            &AlwaysAwake,
            &SearchConfig::default(),
            &mut substrate,
        );
        assert_eq!(
            (gopt.latency, gopt.exact),
            (gopt_latency, true),
            "n={n} seed={seed}: G-OPT result drifted from the pre-substrate pin"
        );
        gopt.schedule.verify(&topo, &AlwaysAwake).unwrap();
    }
}

#[test]
fn substrate_halves_conflict_row_computations() {
    // The pre-substrate search built TWO conflict graphs per branching
    // state (one inside the greedy coloring, one for the maximal-set
    // enumeration), i.e. `2 · (rows_built + rows_reused)` row
    // computations in the new accounting, while the substrate computes
    // only `rows_built` from scratch. Graph-sharing alone makes that
    // ratio exactly 2×; to catch a regression of the *delta path* as
    // well, require ≥2.5× (`4·reused ≥ built` — both pinned instances
    // sit at 3× or better today).
    let mut substrate = BroadcastState::new();
    for &(n, seed) in &[(100usize, 0u64), (300, 1)] {
        let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
        let out = solve_opt_with(
            &topo,
            src,
            &AlwaysAwake,
            &SearchConfig::default(),
            &mut substrate,
        );
        let built = out.stats.conflict_rows_built;
        let reused = out.stats.conflict_rows_reused;
        assert!(
            built > 0 && 4 * reused >= built,
            "n={n} seed={seed}: row-computation reduction fell below 2.5× \
             ({built} built from scratch, only {reused} reused by delta; \
             rebuild-per-state would have computed {})",
            2 * (built + reused)
        );
        // The interner canonicalizes exactly the evaluated states under
        // AlwaysAwake (one phase), collision-free by construction. (A
        // state reached after the cap is interned but not counted, so the
        // equality only holds while the cap never fires — assert that
        // precondition rather than let it fail the pin spuriously.)
        assert!(!out.stats.state_cap_hit);
        assert_eq!(out.stats.interned_sets, out.stats.states);
    }
}

/// Duty-regime pins under the adaptive budget (the configuration the
/// figure sweeps run): latencies, exactness, and the conflict-row
/// accounting shape of the duty-cycle searches.
///
/// `(nodes, deployment seed, rate, OPT latency)` — all exact under the
/// adaptive budget (two of these were `exact: false` under the old
/// constant caps).
const DUTY_PINNED: &[(usize, u64, u32, u64)] = &[(100, 0, 50, 183), (200, 0, 10, 15)];

#[test]
fn duty_adaptive_search_pins_and_row_accounting() {
    let mut substrate = BroadcastState::new();
    for &(n, seed, rate, latency) in DUTY_PINNED {
        let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
        let wake = WindowedRandom::new(topo.len(), rate, seed ^ 0x57a6_6e8d);
        let cfg = AdaptiveBudget::default().config_for(Regime::Duty { rate }, n);
        let out = solve_opt_with(&topo, src, &wake, &cfg, &mut substrate);
        assert_eq!(
            (out.latency, out.exact),
            (latency, true),
            "n={n} seed={seed} rate={rate}: duty OPT pin drifted"
        );
        out.schedule.verify(&topo, &wake).unwrap();

        // The SearchStats doc scopes the "reused ≥ built ⇒ ≥2× cut" claim
        // to the synchronous searches: in the duty regime the awake
        // candidate set churns every slot, so row *reuse* stays below row
        // *builds* today. Pin that measured shape — if the substrate ever
        // learns to carry rows across awake-set churn (an improvement),
        // this assertion flags it for a doc + pin update rather than
        // letting the documentation drift.
        let built = out.stats.conflict_rows_built;
        let reused = out.stats.conflict_rows_reused;
        assert!(built > 0, "n={n}: duty search built no conflict rows");
        assert!(
            reused < built,
            "n={n} seed={seed} rate={rate}: duty row reuse ({reused}) caught up with \
             builds ({built}) — the conflict_rows_reused doc scoping is stale"
        );

        // The phase folder must be live on every duty search.
        assert!(out.stats.phase_classes > 0);
        assert!(out.stats.memo_entries <= out.stats.states);
    }
}

/// Search-path pins on paper-grid's heaviest instance (sync, 300 nodes,
/// deployment `0x5EED_2012 ^ (300 << 16) ^ 1`, adaptive budget) and on its
/// duty twin (r = 10, wake seed `seed ^ 0xAAAA`): latency, `exact` and
/// `SearchStats { states, memo_hits, memo_entries, interned_sets, pruned }`
/// for OPT and G-OPT. A kernel change that claims to be bit-identical (the
/// hop profile, the CWT weights, the memo layout, the branch sort) must
/// leave every one of these numbers alone.
///
/// `(regime, algorithm, latency, exact, states, memo_hits, memo_entries,
/// interned_sets, pruned)`.
#[allow(clippy::type_complexity)]
const HEAVY_PINNED: &[(&str, &str, u64, bool, usize, usize, usize, usize, usize)] = &[
    ("sync", "opt", 7, false, 9_239, 16_326, 9_238, 9_238, 25_257),
    ("sync", "gopt", 7, true, 613, 56, 613, 613, 629),
    ("duty", "opt", 11, true, 12, 0, 12, 12, 2),
    ("duty", "gopt", 11, true, 11, 0, 11, 11, 0),
];

#[test]
fn heavy_paper_grid_instance_search_path_pins() {
    let n = 300;
    let seed = 0x5EED_2012 ^ ((n as u64) << 16) ^ 1;
    let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
    let duty = Regime::Duty { rate: 10 };
    let wake = WindowedRandom::new(n, 10, seed ^ 0xAAAA);
    let budget = AdaptiveBudget::default();
    let mut substrate = BroadcastState::new();
    for &(regime, algo, latency, exact, states, hits, entries, interned, pruned) in HEAVY_PINNED {
        let out = match (regime, algo) {
            ("sync", "opt") => solve_opt_with(
                &topo,
                src,
                &AlwaysAwake,
                &budget.config_for(Regime::Sync, n),
                &mut substrate,
            ),
            ("sync", "gopt") => solve_gopt_with(
                &topo,
                src,
                &AlwaysAwake,
                &budget.config_for(Regime::Sync, n),
                &mut substrate,
            ),
            ("duty", "opt") => solve_opt_with(
                &topo,
                src,
                &wake,
                &budget.config_for(duty, n),
                &mut substrate,
            ),
            _ => solve_gopt_with(
                &topo,
                src,
                &wake,
                &budget.config_for(duty, n),
                &mut substrate,
            ),
        };
        let s = &out.stats;
        assert_eq!(
            (
                out.latency,
                out.exact,
                s.states,
                s.memo_hits,
                s.memo_entries,
                s.interned_sets,
                s.pruned
            ),
            (latency, exact, states, hits, entries, interned, pruned),
            "{regime} {algo}: (latency, exact, states, memo_hits, memo_entries, \
             interned_sets, pruned) drifted"
        );
    }
}
