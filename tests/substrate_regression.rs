//! Substrate-refactor regression pins.
//!
//! The incremental conflict substrate (interned memo keys, delta-built
//! conflict graphs, shared scratch) must be a pure performance change:
//! `solve_opt` / `solve_gopt` over the seeded paper deployments must
//! report exactly the pinned latencies and `exact` flags, and a search
//! that walks sibling states must show the promised ≥2× reduction in
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
/// under the default configuration; G-OPT is exact on all of these. The
/// latencies were first recorded on the pre-substrate implementation,
/// whose beam OPT (no dominance pruning, no certification) was flagged
/// inexact throughout and read 8 slots on `(100, 0)`. OPT is now certified
/// by the root hop bound where it meets it, and otherwise by a complete
/// enumeration: on `(100, 0)` that pass finds 7 slots, the hop bound, and
/// on `(100, 2)` it proves 7. On `(300, 1)` it gives up at its set cap,
/// so that result stays inexact.
const PINNED: &[(usize, u64, u64, bool, u64)] = &[
    (60, 4, 6, true, 7),
    (80, 11, 7, true, 8),
    (100, 0, 7, true, 8),
    (100, 1, 7, true, 7),
    (100, 2, 7, true, 7),
    (300, 0, 6, true, 6),
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
    // well, require ≥2.5× (`4·reused ≥ built`). Row reuse needs a search
    // that walks sibling states, so this runs exhaustive G-OPT, which
    // evaluates every greedy class of every state (both instances sit
    // near 2.8× and 4.8× today). Sync OPT with dominance pruning stops
    // at the first branch that meets a bound and reuses few rows.
    let exhaustive = SearchConfig {
        exhaustive: true,
        ..SearchConfig::default()
    };
    let mut substrate = BroadcastState::new();
    for &(n, seed) in &[(60usize, 4u64), (100, 0)] {
        let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
        let out = solve_gopt_with(&topo, src, &AlwaysAwake, &exhaustive, &mut substrate);
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
/// `(nodes, deployment seed, rate, OPT latency, states, memo_hits,
/// memo_entries, phase_classes)` — all exact under the adaptive budget (two
/// of these were `exact: false` under the old constant caps). The counters
/// pin the phase-fold keys: the rate-50 search folds at the 128- and
/// 512-slot levels (multi-word windows), the rate-10 search at the 8- and
/// 32-slot levels (several windows packed per word).
#[allow(clippy::type_complexity)]
const DUTY_PINNED: &[(usize, u64, u32, u64, usize, usize, u32, usize)] = &[
    (100, 0, 50, 183, 47, 0, 47, 47),
    (200, 0, 10, 15, 14, 0, 14, 14),
];

#[test]
fn duty_adaptive_search_pins_and_row_accounting() {
    let mut substrate = BroadcastState::new();
    for &(n, seed, rate, latency, states, hits, entries, classes) in DUTY_PINNED {
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
        assert!(out.stats.memo_entries as usize <= out.stats.states);
        let s = &out.stats;
        assert_eq!(
            (s.states, s.memo_hits, s.memo_entries, s.phase_classes),
            (states, hits, entries, classes),
            "n={n} seed={seed} rate={rate}: duty OPT search path drifted"
        );
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
/// The sync rows were re-recorded when tight states (budget equal to the
/// hop bound) began to branch only over sender sets that bring every far
/// node one hop closer: OPT went from 909 states to 36, G-OPT from 613 to
/// 105, both still 7 slots and exact.
///
/// `(regime, algorithm, latency, exact, states, memo_hits, memo_entries,
/// interned_sets, pruned)`.
#[allow(clippy::type_complexity)]
const HEAVY_PINNED: &[(&str, &str, u64, bool, usize, usize, u32, usize, u32)] = &[
    ("sync", "opt", 7, true, 36, 0, 36, 36, 189),
    ("sync", "gopt", 7, true, 105, 5, 105, 105, 71),
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

/// The paper-grid pool's deployment `d` of `n` nodes: `0x5EED_2012 ^ (n <<
/// 16) ^ d` (paper-grid itself runs `d < 2`).
fn grid_seed(n: usize, d: u64) -> u64 {
    0x5EED_2012 ^ ((n as u64) << 16) ^ d
}

/// OPT on `paper(n)` for `n = 50, 100, …, 300` and deployments `d < 20`
/// (`grid_seed`), synchronous and at r = 10 (wake seed `seed ^ 0xAAAA`),
/// under the adaptive budget, as recorded before the tight-budget rule:
/// `(n, d, sync latency, sync exact, duty latency, duty exact)`.
const WIDE_GRID_OPT: &[(usize, u64, u64, bool, u64, bool)] = &[
    (50, 0, 7, true, 24, true),
    (50, 1, 8, true, 38, true),
    (50, 2, 8, true, 36, true),
    (50, 3, 8, true, 43, true),
    (50, 4, 6, true, 40, true),
    (50, 5, 6, true, 37, true),
    (50, 6, 6, true, 45, true),
    (50, 7, 8, true, 42, true),
    (50, 8, 7, true, 34, true),
    (50, 9, 8, true, 40, true),
    (50, 10, 8, true, 32, true),
    (50, 11, 8, true, 43, true),
    (50, 12, 7, true, 34, true),
    (50, 13, 7, true, 34, true),
    (50, 14, 8, true, 47, true),
    (50, 15, 8, true, 28, true),
    (50, 16, 8, true, 55, true),
    (50, 17, 6, true, 27, true),
    (50, 18, 8, true, 37, true),
    (50, 19, 8, true, 42, true),
    (100, 0, 8, true, 29, true),
    (100, 1, 8, true, 27, true),
    (100, 2, 7, true, 15, true),
    (100, 3, 6, true, 17, true),
    (100, 4, 7, true, 21, true),
    (100, 5, 7, true, 29, true),
    (100, 6, 8, true, 20, true),
    (100, 7, 8, true, 29, true),
    (100, 8, 8, true, 22, true),
    (100, 9, 8, true, 28, true),
    (100, 10, 8, true, 27, true),
    (100, 11, 8, true, 25, true),
    (100, 12, 8, true, 24, true),
    (100, 13, 7, true, 25, true),
    (100, 14, 8, true, 27, true),
    (100, 15, 7, true, 32, true),
    (100, 16, 6, true, 18, true),
    (100, 17, 7, true, 28, true),
    (100, 18, 6, true, 23, true),
    (100, 19, 8, true, 34, true),
    (150, 0, 6, true, 17, true),
    (150, 1, 7, true, 14, true),
    (150, 2, 6, true, 13, true),
    (150, 3, 6, true, 15, true),
    (150, 4, 6, true, 21, true),
    (150, 5, 7, true, 19, true),
    (150, 6, 7, true, 17, true),
    (150, 7, 7, true, 20, true),
    (150, 8, 7, true, 18, true),
    (150, 9, 8, true, 19, true),
    (150, 10, 6, true, 15, true),
    (150, 11, 7, true, 17, true),
    (150, 12, 8, true, 21, true),
    (150, 13, 7, false, 14, true),
    (150, 14, 5, true, 18, true),
    (150, 15, 8, false, 26, true),
    (150, 16, 6, true, 20, true),
    (150, 17, 8, true, 16, true),
    (150, 18, 6, true, 17, true),
    (150, 19, 6, true, 13, true),
    (200, 0, 6, true, 13, true),
    (200, 1, 8, true, 15, true),
    (200, 2, 7, true, 14, true),
    (200, 3, 7, true, 15, true),
    (200, 4, 7, true, 14, true),
    (200, 5, 8, false, 16, true),
    (200, 6, 7, true, 20, true),
    (200, 7, 6, true, 17, true),
    (200, 8, 8, false, 13, true),
    (200, 9, 7, true, 14, true),
    (200, 10, 8, true, 18, true),
    (200, 11, 8, false, 14, true),
    (200, 12, 8, false, 21, true),
    (200, 13, 6, true, 16, true),
    (200, 14, 6, true, 12, true),
    (200, 15, 5, true, 11, true),
    (200, 16, 7, false, 11, true),
    (200, 17, 6, true, 12, true),
    (200, 18, 6, false, 11, true),
    (200, 19, 8, true, 19, true),
    (250, 0, 7, true, 14, true),
    (250, 1, 7, true, 12, true),
    (250, 2, 7, true, 14, true),
    (250, 3, 8, true, 20, true),
    (250, 4, 6, true, 15, true),
    (250, 5, 8, false, 15, true),
    (250, 6, 7, false, 12, true),
    (250, 7, 6, true, 11, true),
    (250, 8, 6, true, 14, true),
    (250, 9, 7, true, 14, true),
    (250, 10, 8, true, 13, true),
    (250, 11, 7, true, 10, true),
    (250, 12, 7, false, 10, true),
    (250, 13, 7, false, 12, true),
    (250, 14, 6, false, 15, true),
    (250, 15, 6, true, 11, true),
    (250, 16, 7, true, 13, true),
    (250, 17, 6, true, 11, true),
    (250, 18, 7, true, 14, true),
    (250, 19, 6, true, 15, true),
    (300, 0, 6, true, 9, true),
    (300, 1, 7, true, 11, true),
    (300, 2, 7, true, 13, true),
    (300, 3, 7, false, 11, true),
    (300, 4, 6, true, 10, true),
    (300, 5, 6, true, 10, true),
    (300, 6, 6, false, 11, true),
    (300, 7, 6, true, 12, true),
    (300, 8, 7, false, 10, true),
    (300, 9, 7, true, 13, true),
    (300, 10, 5, true, 10, true),
    (300, 11, 7, false, 10, true),
    (300, 12, 6, true, 11, true),
    (300, 13, 6, false, 9, true),
    (300, 14, 6, false, 12, true),
    (300, 15, 8, true, 13, true),
    (300, 16, 7, false, 13, true),
    (300, 17, 7, false, 12, true),
    (300, 18, 7, true, 15, true),
    (300, 19, 7, true, 15, true),
];

#[test]
fn opt_never_regresses_on_the_wide_paper_grid() {
    // A change to the search may lower a latency or prove a result exact,
    // never the reverse.
    let mut substrate = BroadcastState::new();
    let budget = AdaptiveBudget::default();
    for &(n, d, sync_latency, sync_exact, duty_latency, duty_exact) in WIDE_GRID_OPT {
        let seed = grid_seed(n, d);
        let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
        let wake = WindowedRandom::new(n, 10, seed ^ 0xAAAA);
        let sync_cfg = budget.config_for(Regime::Sync, n);
        let sync = solve_opt_with(&topo, src, &AlwaysAwake, &sync_cfg, &mut substrate);
        sync.schedule.verify(&topo, &AlwaysAwake).unwrap();
        let duty_cfg = budget.config_for(Regime::Duty { rate: 10 }, n);
        let duty = solve_opt_with(&topo, src, &wake, &duty_cfg, &mut substrate);
        duty.schedule.verify(&topo, &wake).unwrap();
        for (regime, out, latency, exact) in [
            ("sync", sync, sync_latency, sync_exact),
            ("duty", duty, duty_latency, duty_exact),
        ] {
            assert!(
                out.latency <= latency && (out.exact || !exact),
                "({n}, {d}) {regime}: OPT gave ({}, {}), recorded ({latency}, {exact})",
                out.latency,
                out.exact
            );
        }
    }
}

/// Paper-grid's determinism gate fails a repeat whose `(latency, exact)`
/// differs from the first solve, and the benchmark threads one substrate
/// through every solve. The two sync instances with OPT's longest searches,
/// `(300, 1)` and `(100, 1)`, must read the same on a fresh substrate and
/// after the other 22 paper-grid instances ran OPT and G-OPT on it.
#[test]
fn tail_instances_repeat_on_a_warm_substrate() {
    let budget = AdaptiveBudget::default();
    let tails = [(300usize, 1u64), (100, 1)];
    let sync_opt = |n: usize, d: u64, substrate: &mut BroadcastState| {
        let (topo, src) = SyntheticDeployment::paper(n).sample(grid_seed(n, d));
        let cfg = budget.config_for(Regime::Sync, n);
        let out = solve_opt_with(&topo, src, &AlwaysAwake, &cfg, substrate);
        (out.latency, out.exact)
    };
    let cold: Vec<(u64, bool)> = tails
        .iter()
        .map(|&(n, d)| sync_opt(n, d, &mut BroadcastState::new()))
        .collect();
    assert_eq!(cold, [(7, true), (8, true)]);

    let mut substrate = BroadcastState::new();
    for n in [50usize, 100, 150, 200, 250, 300] {
        for d in 0..2u64 {
            let seed = grid_seed(n, d);
            let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
            let wake = WindowedRandom::new(n, 10, seed ^ 0xAAAA);
            let duty = budget.config_for(Regime::Duty { rate: 10 }, n);
            solve_opt_with(&topo, src, &wake, &duty, &mut substrate);
            solve_gopt_with(&topo, src, &wake, &duty, &mut substrate);
            if !tails.contains(&(n, d)) {
                let sync = budget.config_for(Regime::Sync, n);
                solve_opt_with(&topo, src, &AlwaysAwake, &sync, &mut substrate);
                solve_gopt_with(&topo, src, &AlwaysAwake, &sync, &mut substrate);
            }
        }
    }
    let warm: Vec<(u64, bool)> = tails
        .iter()
        .map(|&(n, d)| sync_opt(n, d, &mut substrate))
        .collect();
    assert_eq!(warm, cold);
}

/// FNV-1a over every `E_i(u).to_bits()` of the E-model on paper-grid's 24
/// instances: `n ∈ {50, …, 300}`, two deployments each, built under
/// `AlwaysAwake` and under the duty schedule `WindowedRandom::new(n, 10,
/// seed ^ 0xAAAA)`. Recorded on the heap-Dijkstra build; any construction
/// must reproduce every value bit for bit.
const EMODEL_VALUES_FNV: u64 = 0x416e_4127_7ece_c441;

#[test]
fn emodel_values_pin_on_paper_grid_instances() {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |em: &EModel, topo: &Topology| {
        for u in topo.nodes() {
            for x in em.tuple(u) {
                for b in x.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    };
    for n in [50usize, 100, 150, 200, 250, 300] {
        for d in 0..2u64 {
            let seed = 0x5EED_2012 ^ ((n as u64) << 16) ^ d;
            let (topo, _) = SyntheticDeployment::paper(n).sample(seed);
            fold(&EModel::build(&topo, &AlwaysAwake), &topo);
            let wake = WindowedRandom::new(n, 10, seed ^ 0xAAAA);
            fold(&EModel::build(&topo, &wake), &topo);
        }
    }
    assert_eq!(
        hash, EMODEL_VALUES_FNV,
        "E-model values drifted: {hash:#018x}"
    );
}
