//! Regression pins for the serial search chain.
//!
//! The portfolio refactor routed `solve_anytime` through the shared chain
//! body (`run_chain`); these pins freeze the chain's iteration-budget
//! behavior against values recorded from the pre-portfolio driver, so any
//! future edit that silently perturbs the serial path — an extra RNG
//! draw, a changed deadline cadence, a reordered accept test — fails
//! loudly instead of drifting the recorded baselines.

use wsn_anytime::{solve_anytime, AnytimeConfig, AnytimeOutcome, Budget, Portfolio};
use wsn_dutycycle::AlwaysAwake;
use wsn_phy::ProtocolModel;
use wsn_topology::deploy;

/// Order-sensitive digest of a schedule's entries.
fn schedule_sig(out: &AnytimeOutcome) -> u64 {
    out.schedule
        .entries
        .iter()
        .map(|e| e.slot.wrapping_mul(31) ^ e.senders.iter().map(|s| u64::from(s.0)).sum::<u64>())
        .fold(0u64, |acc, x| acc.rotate_left(7) ^ x)
}

/// `(n, deployment seed, iteration budget)` → expected
/// `(latency, moves, passes, restarts, entries, sig)`, recorded from the
/// PR 5 serial driver.
#[allow(clippy::type_complexity)]
const PINS: [((usize, u64, u64), (u64, u64, u64, u64, usize, u64)); 3] = [
    ((120, 5, 10_000), (5, 314, 72, 18, 5, 12_188_235_637)),
    (
        (200, 11, 30_000),
        (7, 30_000, 7_500, 1_875, 7, 165_761_005_759_570),
    ),
    (
        (300, 2, 25_000),
        (8, 25_062, 9, 2, 8, 128_524_792_643_724_510),
    ),
];

#[test]
fn serial_chain_is_bit_identical_to_pr5_driver() {
    for ((n, seed, budget), (latency, moves, passes, restarts, entries, sig)) in PINS {
        let (topo, src) = deploy::SyntheticDeployment::paper(n).sample(seed);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(budget),
            ..AnytimeConfig::default()
        };
        let out = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
        assert_eq!(
            (
                out.latency,
                out.moves,
                out.passes,
                out.restarts,
                out.schedule.entries.len(),
                schedule_sig(&out),
            ),
            (latency, moves, passes, restarts, entries, sig),
            "n={n} seed={seed}: serial chain drifted from the PR 5 pin"
        );
    }
}

#[test]
fn single_thread_portfolio_is_the_serial_chain() {
    for ((n, seed, budget), _) in PINS {
        let (topo, src) = deploy::SyntheticDeployment::paper(n).sample(seed);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(budget),
            ..AnytimeConfig::default()
        };
        let serial = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
        let port =
            Portfolio::with_config(cfg, 1).solve(&topo, src, &AlwaysAwake, &ProtocolModel, None);
        assert_eq!(port.latency, serial.latency);
        assert_eq!(port.moves, serial.moves);
        assert_eq!(port.passes, serial.passes);
        assert_eq!(port.restarts, serial.restarts);
        assert_eq!(schedule_sig(&port), schedule_sig(&serial), "n={n}");
        // Traces carry wall-clock stamps; compare the deterministic parts.
        let lat = |t: &[wsn_anytime::TracePoint]| t.iter().map(|p| p.latency).collect::<Vec<_>>();
        assert_eq!(lat(&port.trace), lat(&serial.trace));
        let det = |d: &[wsn_anytime::DetailPoint]| {
            d.iter().map(|p| (p.latency, p.kind)).collect::<Vec<_>>()
        };
        assert_eq!(det(&port.detail), det(&serial.detail));
    }
}
