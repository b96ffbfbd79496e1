//! Regression pins for the search chain under iteration budgets.
//!
//! Every anytime entry runs the same chain body (`run_chain`); these pins
//! freeze its iteration-budget behavior: latency, work billed, passes,
//! restarts and a digest of the schedule. An edit that silently perturbs
//! the chain — an extra RNG draw, a changed deadline cadence, a reordered
//! accept test, a restart drawing from the wrong stream — fails here
//! instead of drifting the recorded baselines. The values do not depend
//! on whether the chain legalized restarts on a helper thread.

use mlbs_core::Schedule;
use wsn_anytime::{reschedule, solve_anytime, AnytimeConfig, AnytimeOutcome, Budget, ChurnDelta};
use wsn_dutycycle::{AlwaysAwake, WindowedRandom};
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
/// `(latency, moves, passes, restarts, entries, sig)` of a cold chain,
/// recorded with every restart drawing from its own stream and the
/// frontier ranked by reach.
#[allow(clippy::type_complexity)]
const PINS: [((usize, u64, u64), (u64, u64, u64, u64, usize, u64)); 3] = [
    ((120, 5, 10_000), (5, 33, 8, 2, 5, 12_083_885_604)),
    (
        (200, 11, 30_000),
        (7, 30_001, 6_316, 1_579, 7, 165_760_801_077_451),
    ),
    (
        (300, 2, 25_000),
        (7, 25_000, 5_000, 1_250, 7, 1_004_048_035_529_565),
    ),
];

#[test]
fn cold_chain_is_pinned() {
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
            "n={n} seed={seed}: cold chain drifted from its pin"
        );
    }
}

/// A repair of the empty schedule under an empty delta is a cold solve:
/// what a serving shard runs before it holds an incumbent.
#[test]
fn cold_repair_is_the_serial_chain() {
    for ((n, seed, budget), _) in PINS {
        let (topo, src) = deploy::SyntheticDeployment::paper(n).sample(seed);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(budget),
            ..AnytimeConfig::default()
        };
        let serial = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
        let empty = Schedule {
            source: src,
            start: cfg.start_from,
            entries: Vec::new(),
            repeats: Vec::new(),
        };
        let rep = reschedule(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &empty,
            &ChurnDelta::default(),
            &cfg,
        );
        assert!(rep.mask.is_empty() && rep.uncovered.is_empty());
        let cold = rep.outcome;
        assert_eq!(cold.latency, serial.latency);
        assert_eq!(cold.moves, serial.moves);
        assert_eq!(cold.passes, serial.passes);
        assert_eq!(cold.restarts, serial.restarts);
        assert_eq!(schedule_sig(&cold), schedule_sig(&serial), "n={n}");
        // Traces carry wall-clock stamps; compare the deterministic parts.
        let lat = |t: &[wsn_anytime::TracePoint]| t.iter().map(|p| p.latency).collect::<Vec<_>>();
        assert_eq!(lat(&cold.trace), lat(&serial.trace));
    }
}

/// The duty-cycled chain: `(n, deployment seed, rate, iteration budget)`
/// → expected `(latency, moves, passes, restarts, entries, sig)` under
/// `WindowedRandom::new(n, rate, seed ^ 0xD00F)`. In the `paper(70)` row
/// an acceptance on an odd pass moves the kicks onto odd passes.
#[allow(clippy::type_complexity)]
const DUTY_PINS: [((usize, u64, u32, u64), (u64, u64, u64, u64, usize, u64)); 2] = [
    (
        (120, 5, 10, 10_000),
        (17, 10_005, 1_994, 498, 14, 11_156_812_406_986_021_272),
    ),
    (
        (70, 19, 5, 4_000),
        (21, 4_001, 941, 235, 16, 14_884_184_041_424_537_058),
    ),
];

#[test]
fn duty_cycled_chain_is_pinned() {
    for ((n, seed, rate, budget), expected) in DUTY_PINS {
        let (topo, src) = deploy::SyntheticDeployment::paper(n).sample(seed);
        let wake = WindowedRandom::new(topo.len(), rate, seed ^ 0xD00F);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(budget),
            ..AnytimeConfig::default()
        };
        let out = solve_anytime(&topo, src, &wake, &ProtocolModel, &cfg);
        out.schedule.verify(&topo, &wake).unwrap();
        assert_eq!(
            (
                out.latency,
                out.moves,
                out.passes,
                out.restarts,
                out.schedule.entries.len(),
                schedule_sig(&out),
            ),
            expected,
            "n={n} seed={seed} rate={rate}: duty-cycled chain drifted from its pin"
        );
    }
}
