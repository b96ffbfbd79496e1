//! The localized broadcast scheduler.
//!
//! Centralized selection (Eq. 10) needs a global view of the coloring; the
//! localized protocol replaces it with a priority handshake entirely inside
//! 2-hop neighborhoods:
//!
//! 1. every informed, awake node with an uninformed neighbor *announces
//!    candidacy* to its 2-hop neighborhood, carrying its priority — the
//!    E-model score (largest quadrant-restricted `E`), receiver count, and
//!    node id as total tie-break;
//! 2. a candidate transmits iff no **conflicting** candidate announced a
//!    higher priority (conflicts evaluated locally per Eq. 1: a shared
//!    uninformed neighbor);
//! 3. receivers piggyback their new informed status on the next beacon.
//!
//! Winners are pairwise conflict-free (between two conflicting candidates
//! the lower-priority one always defers), so the resulting schedule passes
//! the standard verifier. Locality costs *chained deferrals*: `u` may
//! defer to `v` while `v` defers to `w`, leaving `u` idle although `u` and
//! `w` don't conflict. The outcome's stats expose that gap, and the tests
//! compare the localized latency against the centralized pipeline.

use crate::knowledge::NeighborhoodKnowledge;
use mlbs_core::{BroadcastState, EModel, Schedule, ScheduleEntry};
use wsn_bitset::NodeSet;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_topology::{NodeId, Topology};

/// Result of a localized broadcast run.
#[derive(Clone, Debug)]
pub struct LocalizedOutcome {
    /// The (verifier-clean) schedule the protocol produced.
    pub schedule: Schedule,
    /// Protocol overhead accounting.
    pub stats: LocalizedStats,
}

/// Message/behaviour accounting for the localized protocol.
#[derive(Clone, Debug, Default)]
pub struct LocalizedStats {
    /// Candidacy announcements sent (one per candidate per contended slot,
    /// relayed once to reach 2 hops — counted as two messages).
    pub candidacy_messages: usize,
    /// Deferrals: candidate slots spent waiting for a higher-priority
    /// conflicting candidate.
    pub deferrals: usize,
    /// Handshake rounds run by the per-slot elections (each round is one
    /// extra 2-hop exchange — the latency-vs-overhead price of locality).
    pub election_rounds: usize,
}

/// Runs the localized protocol from `source`.
///
/// # Panics
///
/// Panics when the topology is disconnected.
pub fn localized_broadcast<S: WakeSchedule>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    emodel: &EModel,
    start_from: Slot,
) -> LocalizedOutcome {
    localized_broadcast_with(
        topo,
        source,
        wake,
        emodel,
        start_from,
        &mut BroadcastState::new(),
    )
}

/// As [`localized_broadcast`], reusing a caller-provided substrate for the
/// per-slot eligibility and `W̄` scratch state.
pub fn localized_broadcast_with<S: WakeSchedule>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    emodel: &EModel,
    start_from: Slot,
    state: &mut BroadcastState,
) -> LocalizedOutcome {
    let n = topo.len();
    let knowledge = NeighborhoodKnowledge::collect(topo);
    let t_s = wake.next_send(source.idx(), start_from);
    state.reset_for(topo);

    let mut informed = NodeSet::new(n);
    informed.insert(source.idx());
    let mut has_sent = NodeSet::new(n);
    let mut entries: Vec<ScheduleEntry> = Vec::new();
    let mut stats = LocalizedStats::default();
    let mut t = t_s;

    while !informed.is_full() {
        // Everyone locally eligible: informed, not yet relayed its copy to
        // completion, has an uninformed neighbor.
        state.load(topo, &informed);
        let uninformed = state.uninformed();
        let eligible = state.candidates();
        assert!(
            !eligible.is_empty(),
            "broadcast cannot complete: disconnected topology"
        );

        let awake: Vec<NodeId> = eligible
            .iter()
            .copied()
            .filter(|&u| wake.can_send(u.idx(), t) && !has_sent.contains(u.idx()))
            .collect();
        if awake.is_empty() {
            t = eligible
                .iter()
                .map(|u| wake.next_send(u.idx(), t + 1))
                .min()
                .expect("non-empty");
            continue;
        }

        // Candidacy announcements: one local broadcast + one relay each.
        stats.candidacy_messages += 2 * awake.len();

        // Priorities: Eq. (10) score first, then coverage, then id.
        let priority = |u: NodeId| -> (f64, usize, i64) {
            (
                emodel.score(topo, u, uninformed),
                topo.neighbor_set(u).intersection_len(uninformed),
                -(u.idx() as i64),
            )
        };

        // Iterative local election (the standard distributed-MIS
        // handshake): in each handshake round, an undecided candidate
        // whose conflicting higher-priority 2-hop candidates have all
        // LOST becomes a winner; an undecided candidate conflicting with
        // a WINNER loses. The highest-priority undecided candidate always
        // decides, so the election terminates in at most `k` rounds and
        // converges to the greedy-by-priority maximal conflict-free set —
        // each extra round costs one more 2-hop exchange, which the stats
        // charge as candidacy messages.
        #[derive(Clone, Copy, PartialEq)]
        enum Status {
            Undecided,
            Winner,
            Loser,
        }
        let k = awake.len();
        let conflicting_higher: Vec<Vec<usize>> = (0..k)
            .map(|i| {
                let u = awake[i];
                let pu = priority(u);
                (0..k)
                    .filter(|&j| {
                        j != i
                            && knowledge[u.idx()].two_hop.contains(awake[j].idx())
                            && priority(awake[j]) > pu
                            && knowledge[u.idx()].conflicts_locally(topo, awake[j], uninformed)
                    })
                    .collect()
            })
            .collect();
        let mut status = vec![Status::Undecided; k];
        loop {
            let mut changed = false;
            for i in 0..k {
                if status[i] != Status::Undecided {
                    continue;
                }
                if conflicting_higher[i]
                    .iter()
                    .any(|&j| status[j] == Status::Winner)
                {
                    status[i] = Status::Loser;
                    stats.deferrals += 1;
                    changed = true;
                } else if conflicting_higher[i]
                    .iter()
                    .all(|&j| status[j] == Status::Loser)
                {
                    status[i] = Status::Winner;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            // One handshake round = one more 2-hop exchange per candidate
            // still in play.
            stats.candidacy_messages +=
                2 * status.iter().filter(|s| **s == Status::Undecided).count();
            stats.election_rounds += 1;
        }
        let mut winners: Vec<NodeId> = (0..k)
            .filter(|&i| status[i] == Status::Winner)
            .map(|i| awake[i])
            .collect();
        debug_assert!(
            !winners.is_empty(),
            "the top-priority candidate never defers"
        );

        let mut advance = NodeSet::new(n);
        for &u in &winners {
            advance.union_with(topo.neighbor_set(u));
            has_sent.insert(u.idx());
        }
        advance.difference_with(&informed);
        informed.union_with(&advance);

        winners.sort_unstable();
        entries.push(ScheduleEntry::new(t, winners));
        t += 1;
    }

    LocalizedOutcome {
        schedule: Schedule {
            source,
            start: t_s,
            entries,
            repeats: Vec::new(),
        },
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlbs_core::{run_pipeline, EModelSelector, PipelineConfig, SearchConfig};
    use wsn_dutycycle::{AlwaysAwake, WindowedRandom};
    use wsn_topology::{deploy, fixtures};

    #[test]
    fn localized_schedules_verify() {
        for seed in 0..4 {
            let (topo, src) = deploy::SyntheticDeployment::paper(120).sample(seed);
            let em = EModel::build(&topo, &AlwaysAwake);
            let out = localized_broadcast(&topo, src, &AlwaysAwake, &em, 1);
            out.schedule.verify(&topo, &AlwaysAwake).unwrap();
        }
    }

    #[test]
    fn localized_matches_optimum_on_fig1() {
        // On the Figure 1 network the localized handshake finds the same
        // 3-round broadcast as the centralized schemes: node 1's priority
        // dominates inside its 2-hop neighborhood.
        let f = fixtures::fig1();
        let em = EModel::build(&f.topo, &AlwaysAwake);
        let out = localized_broadcast(&f.topo, f.source, &AlwaysAwake, &em, 1);
        out.schedule.verify(&f.topo, &AlwaysAwake).unwrap();
        assert_eq!(out.schedule.latency(), 3);
    }

    #[test]
    fn localized_close_to_centralized_pipeline() {
        // Locality may cost some chained deferrals, but the latency should
        // stay within a small factor of the centralized E-model pipeline.
        let mut total_local = 0.0;
        let mut total_central = 0.0;
        for seed in 0..5 {
            let (topo, src) = deploy::SyntheticDeployment::paper(150).sample(seed);
            let em = EModel::build(&topo, &AlwaysAwake);
            let local = localized_broadcast(&topo, src, &AlwaysAwake, &em, 1);
            local.schedule.verify(&topo, &AlwaysAwake).unwrap();
            let central = run_pipeline(
                &topo,
                src,
                &AlwaysAwake,
                &mut EModelSelector::new(&em),
                &PipelineConfig::default(),
            );
            total_local += local.schedule.latency() as f64;
            total_central += central.latency() as f64;
        }
        assert!(
            total_local <= total_central * 1.5,
            "localized {total_local} vs centralized {total_central}"
        );
    }

    #[test]
    fn localized_beats_the_layer_barrier() {
        // The point of the future-work direction: even without global
        // coordination, dropping the barrier wins against the layered
        // baseline on average.
        let mut local_sum = 0u64;
        let mut layered_sum = 0u64;
        for seed in 0..5 {
            let (topo, src) = deploy::SyntheticDeployment::paper(200).sample(seed);
            let em = EModel::build(&topo, &AlwaysAwake);
            local_sum += localized_broadcast(&topo, src, &AlwaysAwake, &em, 1)
                .schedule
                .latency();
            layered_sum += wsn_baselines_latency(&topo, src);
        }
        assert!(
            local_sum < layered_sum,
            "localized {local_sum} should beat layered {layered_sum}"
        );
    }

    /// The layered baseline without pulling `wsn-baselines` into the
    /// dependency graph: reuse G-OPT's seeded pipeline? No — simplest is a
    /// local reimplementation of the barrier discipline via hop layers.
    fn wsn_baselines_latency(topo: &wsn_topology::Topology, src: NodeId) -> u64 {
        // One greedy color per slot among the frontier layer only.
        use wsn_coloring::greedy_coloring_of_candidates;
        let hops = wsn_topology::metrics::bfs_hops(topo, src);
        let depth = *hops.iter().max().unwrap();
        let mut informed = NodeSet::new(topo.len());
        informed.insert(src.idx());
        let mut t = 0u64;
        for layer in 0..depth {
            loop {
                let uninformed = informed.complement();
                let cands: Vec<NodeId> = (0..topo.len())
                    .filter(|&u| {
                        hops[u] == layer
                            && informed.contains(u)
                            && topo.neighbor_set(NodeId(u as u32)).intersects(&uninformed)
                    })
                    .map(|u| NodeId(u as u32))
                    .collect();
                if cands.is_empty() {
                    break;
                }
                let classes = greedy_coloring_of_candidates(topo, &informed, &cands);
                for &u in &classes[0] {
                    informed.union_with(topo.neighbor_set(u));
                }
                t += 1;
            }
        }
        t
    }

    #[test]
    fn duty_cycle_localized_verifies() {
        let (topo, src) = deploy::SyntheticDeployment::paper(100).sample(9);
        let wake = WindowedRandom::new(topo.len(), 10, 5);
        let em = EModel::build(&topo, &wake);
        let out = localized_broadcast(&topo, src, &wake, &em, 1);
        out.schedule.verify(&topo, &wake).unwrap();
        // Election accounting is consistent: at least one handshake round
        // per contended slot.
        assert!(out.stats.election_rounds >= out.schedule.entries.len());
        let _ = SearchConfig::default();
    }

    #[test]
    fn message_overhead_scales_with_contention() {
        let (topo, src) = deploy::SyntheticDeployment::paper(250).sample(4);
        let em = EModel::build(&topo, &AlwaysAwake);
        let out = localized_broadcast(&topo, src, &AlwaysAwake, &em, 1);
        // Two messages per candidate-slot; candidates ≤ n per slot.
        assert!(out.stats.candidacy_messages >= 2 * out.schedule.entries.len());
        assert!(out.stats.candidacy_messages <= 2 * topo.len() * out.schedule.entries.len());
    }
}
