//! The reliability tier on fixed instances.
//!
//! * **Planned repeats beat blind ones.** On a multihop corridor the
//!   ε-plan verifies with every delivery bound at `1 − ε`, and its
//!   targeted repeats cover more nodes in seeded lossy replays than the
//!   same slot budget spread uniformly over the entries.
//! * **Repair emits a valid schedule over the survivors.** After the first
//!   non-source relay of a scaled deployment dies, `reschedule` returns a
//!   schedule that verifies with the dead masked out.

use mlbs::prelude::*;

const EPSILON: f64 = 0.01;
const TRIALS: usize = 24;

fn budget(iters: u64) -> AnytimeConfig {
    AnytimeConfig {
        budget: Budget::Iterations(iters),
        ..AnytimeConfig::default()
    }
}

/// `n` nodes on a line, radius strictly between one and two hop spacings,
/// so every node has exactly one serving path and no overhearing. Most
/// hops are clean; every 13th carries 50% loss. This is the structural
/// case for targeted retransmission: on a corridor an under-provisioned
/// flaky hop strands the whole downstream suffix, and no alternate sender
/// lets a uniform spread coast.
fn corridor(n: usize) -> (Topology, NodeId, LinkQuality) {
    let points = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
    let topo = Topology::unit_disk(points, 1.2);
    let mut quality = LinkQuality::uniform(&topo, 0.98);
    for i in 0..n - 1 {
        if i % 13 == 6 {
            quality.set_delivery(&topo, NodeId(i as u32), NodeId(i as u32 + 1), 0.5);
        }
    }
    (topo, NodeId(0), quality)
}

/// The lossless schedule's entries with `slot_budget` repeats spread
/// uniformly, the remainder going to the earliest entries.
fn blind_spread(lossless: &Schedule, slot_budget: u64) -> Schedule {
    let entries = lossless.entries.len() as u64;
    let mut blind = lossless.clone();
    let base = (slot_budget / entries) as u32;
    let extra = (slot_budget % entries) as usize;
    blind.repeats = (0..lossless.entries.len())
        .map(|i| base + u32::from(i < extra))
        .collect();
    blind
}

#[test]
fn reliable_plan_beats_blind_retransmission_on_a_corridor() {
    for nodes in [52usize, 104] {
        let (topo, src, quality) = corridor(nodes);
        let out = solve_anytime_reliable(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &quality,
            EPSILON,
            &budget(2_000),
        );
        assert!(out.meets_target, "n={nodes}: ε-plan must reach 1 − ε");
        let report = out
            .schedule
            .verify_reliability(&topo, &AlwaysAwake, &ProtocolModel, &quality, EPSILON)
            .expect("planned schedule must verify with reliability");
        assert!(report.min_delivery >= 1.0 - EPSILON);

        let slot_budget = out.schedule.slot_budget();
        let blind = blind_spread(&out.base.schedule, slot_budget);
        let cov_plan = mean_coverage_quality(&topo, &out.schedule, &quality, TRIALS, 5);
        let cov_blind = mean_coverage_quality(&topo, &blind, &quality, TRIALS, 5);
        assert!(
            cov_plan > cov_blind,
            "n={nodes}: ε-plan ({cov_plan:.4}) must beat blind retransmission \
             ({cov_blind:.4}) at equal slot budget ({slot_budget})"
        );
    }
}

#[test]
fn repair_after_a_relay_death_verifies_over_the_survivors() {
    for nodes in [200usize, 400] {
        let (topo, src) = SyntheticDeployment::scaled(nodes).sample(3);
        let base = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &budget(2_000));
        let victim = base
            .schedule
            .entries
            .iter()
            .flat_map(|e| e.senders.iter().copied())
            .find(|&u| u != src)
            .expect("schedule must have a non-source sender");
        let repaired = reschedule(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &base.schedule,
            &ChurnDelta::deaths([victim]),
            &budget(0),
        );
        repaired
            .outcome
            .schedule
            .verify_covering_with_model(&topo, &AlwaysAwake, &ProtocolModel, Some(&repaired.mask))
            .expect("repaired schedule must verify over the survivors");
    }
}
