//! Anytime metaheuristic scheduling tier: tabu/PARTIALCOL local search
//! that schedules 10k–100k-node networks within a wall-clock budget.
//!
//! The exact tier (`mlbs_core::solve_opt`) prices optimality in state
//! enumeration and stops being usable a little beyond the paper's 300-node
//! instances. This crate trades proof for *interrupt-anytime* semantics:
//!
//! 1. a greedy legalizer seeds a valid schedule in `O(E)` (the private
//!    `legalize` module). On synchronous chains its frontier goes by
//!    *reach* first, the deepest BFS level among the nodes a relay lies on
//!    a shortest path to, computed once per chain from the BFS behind the
//!    depth bound; duty-cycled chains rank by uninformed-degree alone,
//! 2. a [`PartialSchedule`] freezes the incumbent in `O(relays + n)` and
//!    builds its conflict structure on demand: a relay's partner row (the
//!    relays it conflicts with, found through a spatial grid over relay
//!    positions, each with a *deadline*, the last slot in which one of
//!    their witnesses is still uninformed) is built the first time a move
//!    reads it, so single-relay moves delta-evaluate in `O(degree)`; the
//!    freeze happens once per incumbent, and every later pass against the
//!    same incumbent rewinds it in `O(relays + window)`, keeping the rows
//!    built so far. A schedule does not store the slots each node was
//!    informed in: the search keeps the legalizer's copy beside its
//!    incumbent, and [`PartialSchedule::from_schedule`] replays them with
//!    [`Schedule::receive_slots`](mlbs_core::Schedule::receive_slots),
//! 3. PARTIALCOL compression passes (evict the last slot, re-place its
//!    relays under tabu tenure) search for assignments one slot shorter,
//!    and a randomized greedy restart follows three failed passes in a row
//!    (each restart draws from its own seeded stream, so under an
//!    iteration budget a helper thread can build the next one ahead; it
//!    takes orders and hands restarts back over two one-slot channels,
//!    and a stop flag raised when the chain ends cuts its last one short),
//! 4. every candidate is re-simulated by the legalizer and re-verified
//!    under the real [`ConflictModel`](wsn_phy::ConflictModel) before it
//!    may become the incumbent, and each acceptance appends to the
//!    improving-bound [`TracePoint`] trace.
//!
//! Stop it whenever: [`solve_anytime`] returns the best-so-far schedule,
//! always valid, with the latency-vs-time trace that anytime algorithms
//! are judged by. Budgets are wall-clock for benchmarking or
//! iteration-counted for bit-reproducible sweeps ([`Budget`]). An
//! iteration budget bills each compression pass a setup charge
//! proportional to the relay count; since passes rewind instead of
//! re-freezing and build only the rows they read, that charge is a budget
//! contract kept for reproducibility, not work done.
//!
//! There is one search chain. [`reschedule`] runs it warm from an old
//! schedule, under a mask of dead nodes; a serving shard answers every
//! request this way, from its own incumbent.

mod driver;
mod legalize;
mod partial;
mod reliable;
mod repair;

pub use driver::{solve_anytime, AnytimeConfig, AnytimeOutcome, Budget, TracePoint};
pub use partial::{PartialSchedule, StepOutcome};
pub use reliable::{plan_repeats, solve_anytime_reliable, ReliableOutcome, MAX_REPEAT};
pub use repair::{reschedule, ChurnDelta, RepairOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wsn_dutycycle::{AlwaysAwake, WindowedRandom};
    use wsn_geom::Point;
    use wsn_interference::ConflictGraphBuilder;
    use wsn_phy::{
        ConflictModel, MultiChannel, PhyModelSpec, ProtocolModel, SinrModel, SinrParams,
    };
    use wsn_topology::{deploy, NodeId, Topology};

    fn line(n: usize) -> Topology {
        Topology::unit_disk(
            (0..n).map(|i| Point::new(i as f64 * 0.8, 0.0)).collect(),
            1.0,
        )
    }

    #[test]
    fn greedy_seed_verifies_on_paper_and_scaled_instances() {
        let instances = (0..3u64)
            .map(|seed| deploy::SyntheticDeployment::paper(150).sample(seed))
            .chain([1_000, 10_000].map(|n| deploy::SyntheticDeployment::scaled(n).sample(3)));
        for (topo, src) in instances {
            let cfg = AnytimeConfig {
                budget: Budget::Iterations(0),
                ..AnytimeConfig::default()
            };
            let out = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
            out.schedule.verify(&topo, &AlwaysAwake).unwrap();
            assert_eq!(out.latency, out.schedule.latency());
            assert_eq!(out.trace.first().unwrap().latency, out.latency);
        }
    }

    #[test]
    fn search_improves_or_matches_seed_and_trace_is_monotone() {
        let (topo, src) = deploy::SyntheticDeployment::paper(200).sample(11);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(30_000),
            ..AnytimeConfig::default()
        };
        let out = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
        out.schedule.verify(&topo, &AlwaysAwake).unwrap();
        assert!(!out.trace.is_empty());
        for pair in out.trace.windows(2) {
            assert!(pair[1].latency < pair[0].latency, "trace must improve");
            assert!(pair[1].elapsed_ms >= pair[0].elapsed_ms);
        }
        assert_eq!(out.trace.last().unwrap().latency, out.latency);
    }

    #[test]
    fn iteration_budget_is_deterministic() {
        let (topo, src) = deploy::SyntheticDeployment::paper(120).sample(5);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(10_000),
            ..AnytimeConfig::default()
        };
        let a = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
        let b = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.passes, b.passes);
        assert_eq!(
            a.schedule.entries.len(),
            b.schedule.entries.len(),
            "same seed + iteration budget must be bit-reproducible"
        );
        for (ea, eb) in a.schedule.entries.iter().zip(&b.schedule.entries) {
            assert_eq!(ea.slot, eb.slot);
            assert_eq!(ea.senders, eb.senders);
        }
    }

    #[test]
    fn duty_cycle_schedules_verify() {
        for seed in 0..2u64 {
            let (topo, src) = deploy::SyntheticDeployment::paper(90).sample(seed);
            let wake = WindowedRandom::new(topo.len(), 8, seed ^ 0x5eed);
            let cfg = AnytimeConfig {
                budget: Budget::Iterations(8_000),
                ..AnytimeConfig::default()
            };
            let out = solve_anytime(&topo, src, &wake, &ProtocolModel, &cfg);
            out.schedule.verify(&topo, &wake).unwrap();
        }
    }

    #[test]
    fn sinr_and_multichannel_schedules_verify() {
        let (topo, src) = deploy::SyntheticDeployment::paper(100).sample(3);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(6_000),
            ..AnytimeConfig::default()
        };
        let sinr = SinrModel::new(SinrParams::calibrated(topo.radius(), 3.0, 1.5), &topo);
        let out = solve_anytime(&topo, src, &AlwaysAwake, &sinr, &cfg);
        out.schedule
            .verify_with_model(&topo, &AlwaysAwake, &sinr)
            .unwrap();

        let multi = MultiChannel::new(ProtocolModel, 3);
        let out = solve_anytime(&topo, src, &AlwaysAwake, &multi, &cfg);
        out.schedule
            .verify_with_model(&topo, &AlwaysAwake, &multi)
            .unwrap();

        let spec = PhyModelSpec::protocol().with_channels(2).build(&topo);
        let out = solve_anytime(&topo, src, &AlwaysAwake, &spec, &cfg);
        out.schedule
            .verify_with_model(&topo, &AlwaysAwake, &spec)
            .unwrap();
    }

    #[test]
    fn line_network_reaches_the_depth_bound() {
        // On a path the BFS-depth lower bound is achievable; the search
        // should find it and stop early with optimality proven.
        let topo = line(12);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(20_000),
            ..AnytimeConfig::default()
        };
        let out = solve_anytime(&topo, NodeId(0), &AlwaysAwake, &ProtocolModel, &cfg);
        out.schedule.verify(&topo, &AlwaysAwake).unwrap();
        assert!(out.proved_optimal);
    }

    #[test]
    fn trivial_networks() {
        // Single node: no transmissions, empty trace-compatible outcome.
        let topo1 = Topology::unit_disk(vec![Point::new(0.0, 0.0)], 1.0);
        let out = solve_anytime(
            &topo1,
            NodeId(0),
            &AlwaysAwake,
            &ProtocolModel,
            &AnytimeConfig::default(),
        );
        assert!(out.schedule.entries.is_empty());
        assert_eq!(out.latency, 0);
        // Two nodes: exactly one transmission.
        let topo2 = line(2);
        let out = solve_anytime(
            &topo2,
            NodeId(0),
            &AlwaysAwake,
            &ProtocolModel,
            &AnytimeConfig::default(),
        );
        assert_eq!(out.latency, 1);
        assert!(out.proved_optimal);
    }

    #[test]
    fn partial_schedule_move_costs_match_brute_force() {
        let (topo, src) = deploy::SyntheticDeployment::paper(80).sample(2);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(0),
            ..AnytimeConfig::default()
        };
        let out = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
        let mut builder = ConflictGraphBuilder::new();
        let mut partial =
            PartialSchedule::from_schedule(&out.schedule, &topo, &ProtocolModel, &mut builder);
        assert_move_costs_match_brute_force(&partial, &topo, &out.schedule);
        // A compression pass rearranges the assignment; the rewound state
        // must price moves exactly like the fresh freeze.
        let mut rng = StdRng::seed_from_u64(1);
        assert!(partial.begin_compress());
        for _ in 0..50 {
            if partial.compress_step(&AlwaysAwake, 7, &mut rng) != StepOutcome::Progress {
                break;
            }
        }
        partial.rewind();
        assert_move_costs_match_brute_force(&partial, &topo, &out.schedule);
    }

    fn assert_move_costs_match_brute_force(
        partial: &PartialSchedule<ProtocolModel>,
        topo: &Topology,
        schedule: &mlbs_core::Schedule,
    ) {
        let start = schedule.start;
        let end = schedule.completion_slot();
        let receive = schedule.receive_slots(topo, &ProtocolModel, None);
        // Delta-evaluated move costs must equal a from-scratch recount of
        // live-deadline partners at the target slot.
        for i in 0..partial.relays().len().min(20) {
            for t in start + 1..=end {
                let got = partial.move_cost(i, t);
                let brute = (0..partial.relays().len())
                    .filter(|&j| j != i && partial.slot_of(j) == Some(t))
                    .filter(|&j| {
                        let u = partial.relays()[i];
                        let v = partial.relays()[j];
                        let mut wit = Vec::new();
                        ProtocolModel.collect_witnesses(topo, u, v, &mut wit);
                        wit.iter().any(|&w| t <= receive[w as usize])
                    })
                    .count() as u32;
                assert_eq!(got, brute, "relay {i} slot {t}");
            }
        }
    }
}
