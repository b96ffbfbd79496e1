//! Incremental schedule repair under node churn: [`reschedule`] takes a
//! working schedule plus a churn delta and produces a valid schedule for
//! the surviving network, warm-started from everything the churn did not
//! touch.
//!
//! One dead relay strands its whole serving subtree — but the rest of the
//! schedule is still a perfectly good plan, and at 10k–100k nodes a cold
//! re-solve throws away seconds of search the churn never invalidated.
//! Repair therefore reuses the machinery the anytime tier already has:
//!
//! 1. the damage is counted by the verifier's own replay:
//!    [`Schedule::stranded_under`] replays `old` with the dead nodes
//!    silent, leaves out every sender that is dead or no longer informed,
//!    and reports the nodes it no longer reaches. The dead mask (plus any
//!    alive nodes the deaths disconnected) is then threaded through the
//!    legalizer and the chain driver — dead nodes never transmit, are owed
//!    no coverage, and stop witnessing conflicts;
//! 2. the old schedule, minus its dead senders, seeds the first
//!    legalization as hints: surviving placements are re-admitted in their
//!    old slots where still legal, and the greedy frontier fill re-serves
//!    exactly the stranded subtree — repair effort scales with the damage,
//!    not the network;
//! 3. the remaining budget runs the ordinary tabu/PARTIALCOL chain under
//!    the mask, so the improving-bound trace continues monotonically from
//!    the repaired seed.
//!
//! There is one chain and no cold fallback race. A warm chain opens with
//! restart 0, the unjittered cold legalization under the mask, as its
//! first pass, so with any budget that admits a pass a repair never ends
//! worse than a cold re-legalization, by construction. The result always
//! verifies under [`Schedule::verify_covering_with_model`] with the
//! effective mask.
//! With an empty `old` schedule the repair is a masked cold solve; with
//! an empty delta too, it runs the same chain as
//! [`solve_anytime`](crate::solve_anytime).

use mlbs_core::Schedule;
use wsn_bitset::NodeSet;
use wsn_dutycycle::WakeSchedule;
use wsn_phy::ConflictModel;
use wsn_topology::{metrics, NodeId, Topology};

use crate::driver::{lookahead_pays, run_chain, AnytimeConfig, AnytimeOutcome, ChainCtx};
use crate::legalize::Levels;

/// A churn event batch: the nodes that died since the schedule was built,
/// plus any links whose estimated *quality* drifted.
///
/// Quality changes never invalidate a schedule's *conflict* structure —
/// only its reliability plan — so [`reschedule`] ignores
/// [`degraded_links`](ChurnDelta::degraded_links) when computing the dead
/// mask: a quality-only delta warm-starts from *every* surviving placement
/// (the whole old schedule), and the caller re-plans repeats against the
/// new quality afterwards ([`plan_repeats`](crate::plan_repeats); the
/// serving shard's `observe` loop does both in one step). The field
/// exists so a drift-triggered repair can carry the estimator's findings
/// through the same delta type deaths already use, instead of forcing a
/// full re-plan.
#[derive(Clone, Debug, Default)]
pub struct ChurnDelta {
    /// Nodes that died (duplicates and already-dead entries are fine).
    pub dead: Vec<NodeId>,
    /// Links whose delivery estimate drifted: `(u, v, new delivery
    /// probability)`. Advisory for conflict repair (the schedule's
    /// structure stays valid); consumed by the reliability re-plan.
    pub degraded_links: Vec<(NodeId, NodeId, f64)>,
}

impl ChurnDelta {
    /// A delta killing exactly the given nodes.
    pub fn deaths(dead: impl IntoIterator<Item = NodeId>) -> ChurnDelta {
        ChurnDelta {
            dead: dead.into_iter().collect(),
            degraded_links: Vec::new(),
        }
    }

    /// A quality-only delta: no deaths, just links whose delivery estimate
    /// moved. [`reschedule`] under such a delta masks nothing and
    /// warm-starts from the complete old schedule — repair cost is one
    /// legalizer replay plus whatever budget the config grants.
    pub fn degradations(links: impl IntoIterator<Item = (NodeId, NodeId, f64)>) -> ChurnDelta {
        ChurnDelta {
            dead: Vec::new(),
            degraded_links: links.into_iter().collect(),
        }
    }

    /// `true` when the delta carries no deaths — only link-quality drift —
    /// so conflict structure is untouched and repair can reuse every
    /// surviving placement.
    pub fn is_quality_only(&self) -> bool {
        self.dead.is_empty() && !self.degraded_links.is_empty()
    }

    /// `true` when the delta carries nothing at all.
    pub fn is_empty(&self) -> bool {
        self.dead.is_empty() && self.degraded_links.is_empty()
    }
}

/// Result of an incremental repair.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The full anytime outcome of the repair chain (schedule, improving
    /// trace, move counts). The schedule verifies under
    /// [`Schedule::verify_covering_with_model`] with [`RepairOutcome::mask`].
    pub outcome: AnytimeOutcome,
    /// The effective exclusion mask: the delta's dead nodes plus every
    /// alive node they disconnected from the source.
    pub mask: NodeSet,
    /// Alive nodes no schedule can reach anymore (disconnected by the
    /// deaths); they are in `mask` and excluded from the coverage
    /// obligation — the graceful-degradation part of the contract.
    pub uncovered: Vec<NodeId>,
    /// Nodes the old schedule no longer reaches once its dead senders go
    /// silent (the stranded subtree, including any now-unreachable part),
    /// counted by [`Schedule::stranded_under`].
    pub stranded: usize,
    /// Sender placements of the old schedule that survived the churn and
    /// seeded the repair.
    pub reused: usize,
}

/// `old` minus every masked sender (entries emptied by the filter are
/// dropped). Not necessarily a valid schedule — it is only ever used as
/// legalizer hints, which re-check every admission.
fn filter_schedule(old: &Schedule, mask: &NodeSet) -> (Schedule, usize) {
    let mut filtered = Schedule {
        source: old.source,
        start: old.start,
        entries: Vec::new(),
        repeats: Vec::new(),
    };
    let mut reused = 0;
    for entry in &old.entries {
        let mut senders = Vec::new();
        let mut channels = Vec::new();
        for (i, &u) in entry.senders.iter().enumerate() {
            if !mask.contains(u.idx()) {
                senders.push(u);
                if !entry.channels.is_empty() {
                    channels.push(entry.channel_of(i));
                }
            }
        }
        if senders.is_empty() {
            continue;
        }
        reused += senders.len();
        filtered.entries.push(mlbs_core::ScheduleEntry {
            slot: entry.slot,
            senders,
            channels,
        });
    }
    (filtered, reused)
}

/// Incremental repair: rebuilds a valid schedule for the network that
/// survives `delta`, warm-started from everything `old` still gets right.
/// See the module docs for the mechanism.
///
/// Degrades gracefully: alive nodes the deaths disconnected are reported
/// in [`RepairOutcome::uncovered`] and dropped from the coverage
/// obligation rather than panicking.
///
/// # Panics
///
/// Panics when the source itself is in the delta — there is nothing to
/// repair *to*; pick a new source and re-solve instead.
pub fn reschedule<S: WakeSchedule, M: ConflictModel>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    model: &M,
    old: &Schedule,
    delta: &ChurnDelta,
    config: &AnytimeConfig,
) -> RepairOutcome {
    let mut repair_span = wsn_obs::span("repair.reschedule");
    let repair_started = wsn_obs::enabled().then(std::time::Instant::now);
    let n = topo.len();
    let mut mask = NodeSet::new(n);
    for &d in &delta.dead {
        assert!(d != source, "the broadcast source died; re-solve instead");
        mask.insert(d.idx());
    }

    // Damage report against the deaths alone: the nodes the old schedule
    // no longer informs once its dead senders go silent.
    let stranded = old.stranded_under(topo, model, &mask);

    // Alive nodes disconnected by the deaths are unreachable by *any*
    // schedule: fold them into the mask and report them. Closing the mask
    // changes no reachable node's level, so the chain reuses this search.
    let levels = Levels::new(topo, source, Some(&mask));
    let mut uncovered = Vec::new();
    for (u, &h) in levels.hops.iter().enumerate() {
        if h == metrics::UNREACHABLE && !mask.contains(u) {
            uncovered.push(NodeId(u as u32));
            mask.insert(u);
        }
    }
    let (filtered, reused) = filter_schedule(old, &mask);

    let outcome = run_chain(
        topo,
        source,
        wake,
        model,
        config,
        ChainCtx {
            warm: Some(&filtered),
            dead: Some(&mask),
            levels: Some(levels),
            lookahead: lookahead_pays(n),
        },
    );
    debug_assert!(outcome
        .schedule
        .verify_covering_with_model(topo, wake, model, Some(&mask))
        .is_ok());
    if let Some(t0) = repair_started {
        wsn_obs::counter_add("repair.reschedules", 1);
        if delta.is_quality_only() {
            wsn_obs::counter_add("repair.quality_only", 1);
        }
        wsn_obs::counter_add("repair.reused_placements", reused as u64);
        wsn_obs::counter_add("repair.stranded_nodes", stranded as u64);
        wsn_obs::counter_add("repair.uncovered_nodes", uncovered.len() as u64);
        wsn_obs::observe_us("repair.wall_us", t0.elapsed().as_micros() as u64);
        repair_span.set_value(outcome.latency as i64);
    }

    RepairOutcome {
        outcome,
        mask,
        uncovered,
        stranded,
        reused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{solve_anytime, Budget};
    use wsn_dutycycle::AlwaysAwake;
    use wsn_geom::Point;
    use wsn_phy::ProtocolModel;
    use wsn_topology::deploy;

    fn cfg(iters: u64) -> AnytimeConfig {
        AnytimeConfig {
            budget: Budget::Iterations(iters),
            ..AnytimeConfig::default()
        }
    }

    #[test]
    fn repair_after_leaf_death_is_valid_and_reuses_placements() {
        let (topo, src) = deploy::SyntheticDeployment::paper(150).sample(3);
        let base = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg(5_000));
        // Kill a relay that is not the source.
        let victim = base
            .schedule
            .entries
            .last()
            .unwrap()
            .senders
            .iter()
            .copied()
            .find(|&u| u != src)
            .unwrap_or(NodeId(if src.0 == 0 { 1 } else { 0 }));
        let delta = ChurnDelta::deaths([victim]);
        let rep = reschedule(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &base.schedule,
            &delta,
            &cfg(1_000),
        );
        rep.outcome
            .schedule
            .verify_covering_with_model(&topo, &AlwaysAwake, &ProtocolModel, Some(&rep.mask))
            .unwrap();
        assert!(rep.reused > 0);
        assert!(rep.mask.contains(victim.idx()));
        for pair in rep.outcome.trace.windows(2) {
            assert!(pair[1].latency < pair[0].latency);
        }
    }

    #[test]
    fn disconnection_degrades_gracefully() {
        // Path 0-1-2-3-4: killing 2 strands 3 and 4.
        let topo = Topology::unit_disk((0..5).map(|i| Point::new(i as f64, 0.0)).collect(), 1.0);
        let src = NodeId(0);
        let base = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg(0));
        let rep = reschedule(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &base.schedule,
            &ChurnDelta::deaths([NodeId(2)]),
            &cfg(0),
        );
        assert_eq!(rep.uncovered, vec![NodeId(3), NodeId(4)]);
        assert_eq!(rep.stranded, 2);
        rep.outcome
            .schedule
            .verify_covering_with_model(&topo, &AlwaysAwake, &ProtocolModel, Some(&rep.mask))
            .unwrap();
        // Only 0→1 is left to schedule.
        assert_eq!(rep.outcome.schedule.entries.len(), 1);
    }

    #[test]
    fn quality_only_delta_reuses_every_surviving_placement() {
        let (topo, src) = deploy::SyntheticDeployment::paper(150).sample(6);
        let base = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg(5_000));
        let u = base.schedule.entries[0].senders[0];
        let v = topo.neighbors(u)[0];
        let delta = ChurnDelta::degradations([(u, v, 0.4)]);
        assert!(delta.is_quality_only());
        assert!(!delta.is_empty());
        let rep = reschedule(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &base.schedule,
            &delta,
            &cfg(0),
        );
        // Nothing died: the mask is empty, nobody is stranded, and every
        // old placement seeds the warm chain.
        assert!(rep.mask.is_empty());
        assert!(rep.uncovered.is_empty());
        assert_eq!(rep.stranded, 0);
        let old_placements: usize = base.schedule.entries.iter().map(|e| e.senders.len()).sum();
        assert_eq!(rep.reused, old_placements);
        // With an Iterations(0) budget the warm chain replays the old
        // schedule; it must not end worse than the incumbent it started
        // from.
        assert!(rep.outcome.latency <= base.latency);
        rep.outcome
            .schedule
            .verify_covering_with_model(&topo, &AlwaysAwake, &ProtocolModel, None)
            .unwrap();
    }

    #[test]
    fn death_constructor_is_unchanged_by_the_quality_field() {
        let delta = ChurnDelta::deaths([NodeId(3), NodeId(5)]);
        assert_eq!(delta.dead, vec![NodeId(3), NodeId(5)]);
        assert!(delta.degraded_links.is_empty());
        assert!(!delta.is_quality_only());
        assert!(ChurnDelta::default().is_empty());
    }

    #[test]
    fn zero_budget_warm_repair_reproduces_its_incumbent() {
        let (topo, src) = deploy::SyntheticDeployment::paper(1_500).sample(13);
        let base = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg(3_000));
        // No deaths and no budget: the incumbent's placements alone must
        // legalize back to the incumbent.
        let rep = reschedule(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &base.schedule,
            &ChurnDelta::default(),
            &cfg(0),
        );
        assert_eq!(rep.outcome.schedule.entries, base.schedule.entries);
        assert_eq!(rep.outcome.latency, base.latency);
        // With a search budget it searches on from the incumbent instead
        // of losing ground.
        let searched = reschedule(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &base.schedule,
            &ChurnDelta::default(),
            &cfg(3_000),
        );
        assert!(searched.outcome.latency <= base.latency);
        searched
            .outcome
            .schedule
            .verify(&topo, &AlwaysAwake)
            .unwrap();
    }

    #[test]
    fn stranded_count_lets_no_node_send_in_the_entry_that_informs_it() {
        // s(0) informs r(1) and y(2); r informs x(3); then y on channel 0
        // and x on channel 1 share a slot, informing w(5) and z(4).
        //
        //   r ─ x ─ z
        //  /   /
        // s ─ y ─ w
        let topo = Topology::unit_disk(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.7, 0.6),
                Point::new(0.7, -0.6),
                Point::new(1.4, 0.0),
                Point::new(2.3, 0.0),
                Point::new(1.0, -1.5),
            ],
            1.0,
        );
        let model = wsn_phy::MultiChannel::new(ProtocolModel, 2);
        let old = Schedule {
            source: NodeId(0),
            start: 1,
            entries: vec![
                mlbs_core::ScheduleEntry::new(1, vec![NodeId(0)]),
                mlbs_core::ScheduleEntry::new(2, vec![NodeId(1)]),
                mlbs_core::ScheduleEntry {
                    slot: 3,
                    senders: vec![NodeId(2), NodeId(3)],
                    channels: vec![0, 1],
                },
            ],
            repeats: Vec::new(),
        };
        old.verify_with_model(&topo, &AlwaysAwake, &model).unwrap();
        // Kill r: y's channel-0 group now informs x in slot 3, too late
        // for x to fire on channel 1 in the same slot, so z is stranded.
        let rep = reschedule(
            &topo,
            NodeId(0),
            &AlwaysAwake,
            &model,
            &old,
            &ChurnDelta::deaths([NodeId(1)]),
            &cfg(0),
        );
        assert_eq!(rep.stranded, 1);
        assert!(rep.uncovered.is_empty());
        rep.outcome
            .schedule
            .verify_covering_with_model(&topo, &AlwaysAwake, &model, Some(&rep.mask))
            .unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The damage count is the verifier's replay made lenient, so the
        /// two agree: a schedule that verifies over the survivors of a mask
        /// strands nobody under it. Checked on repair outputs under random
        /// masks, sync and duty-cycled, on both reception paths (the
        /// protocol claim list and a model's own resolution). A schedule
        /// corrupted on purpose still gets a count, and no panic.
        #[test]
        fn verified_schedules_strand_nobody_and_corrupted_ones_still_count(
            seed in 0..64u64,
            n in 40usize..110,
            model_ix in 0usize..3,
            rate_ix in 0usize..3,
            stride in 3usize..12,
        ) {
            let (topo, src) = deploy::SyntheticDeployment::paper(n).sample(seed);
            let spec = match model_ix {
                0 => wsn_phy::PhyModelSpec::protocol(),
                1 => wsn_phy::PhyModelSpec::protocol().with_channels(2),
                _ => wsn_phy::PhyModelSpec::sinr(wsn_phy::SinrParams::calibrated(
                    topo.radius(),
                    3.0,
                    1.5,
                )),
            };
            let model = spec.build(&topo);
            // Rate 1 wakes every node in every slot: the synchronous system.
            let rate = [1, 4, 10][rate_ix];
            let wake = wsn_dutycycle::WindowedRandom::new(n, rate, seed);
            let base = solve_anytime(&topo, src, &wake, &model, &cfg(200));
            let dead: Vec<NodeId> = topo
                .nodes()
                .filter(|&u| u != src && (u.idx() + seed as usize).is_multiple_of(stride))
                .collect();
            let rep = reschedule(
                &topo,
                src,
                &wake,
                &model,
                &base.schedule,
                &ChurnDelta::deaths(dead.iter().copied()),
                &cfg(100),
            );
            let repaired = &rep.outcome.schedule;
            let cold_mask = NodeSet::new(n);
            for (schedule, mask) in [(&base.schedule, &cold_mask), (repaired, &rep.mask)] {
                proptest::prop_assert!(schedule
                    .verify_covering_with_model(&topo, &wake, &model, Some(mask))
                    .is_ok());
                proptest::prop_assert_eq!(schedule.stranded_under(&topo, &model, mask), 0);
            }

            // Corruptions. The first entry (the source alone) trades senders
            // with the last, so its new senders are uninformed: the verifier
            // rejects it, the damage count leaves them out.
            let mut swapped = base.schedule.clone();
            let last = swapped.entries.len() - 1;
            if last > 0 {
                let (head, tail) = swapped.entries.split_at_mut(last);
                std::mem::swap(&mut head[0].senders, &mut tail[0].senders);
                std::mem::swap(&mut head[0].channels, &mut tail[0].channels);
                let verdict =
                    swapped.verify_covering_with_model(&topo, &wake, &model, Some(&cold_mask));
                let uninformed = matches!(
                    verdict,
                    Err(mlbs_core::ScheduleError::UninformedSender { .. })
                );
                proptest::prop_assert!(uninformed, "{:?}", verdict);
            }
            // A dead relay put back into the repair is left out again, so
            // nothing else changes.
            let mut revived = repaired.clone();
            if let (Some(&d), Some(entry)) = (dead.first(), revived.entries.last_mut()) {
                entry.senders.push(d);
                if !entry.channels.is_empty() {
                    entry.channels.push(0);
                }
                proptest::prop_assert_eq!(revived.stranded_under(&topo, &model, &rep.mask), 0);
            }
            // A repair from either counts its damage and still verifies.
            for corrupt in [&swapped, &revived] {
                let again = reschedule(
                    &topo,
                    src,
                    &wake,
                    &model,
                    corrupt,
                    &ChurnDelta::deaths(dead.iter().copied()),
                    &cfg(0),
                );
                proptest::prop_assert!(again
                    .outcome
                    .schedule
                    .verify_covering_with_model(&topo, &wake, &model, Some(&again.mask))
                    .is_ok());
            }
        }
    }

    #[test]
    fn repair_never_loses_to_cold_relegalization() {
        for seed in 0..4u64 {
            let (topo, src) = deploy::SyntheticDeployment::paper(150).sample(seed);
            let base = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg(5_000));
            let victim = NodeId(if src.0 == 0 { 1 } else { 0 });
            let delta = ChurnDelta::deaths([victim]);
            let rep = reschedule(
                &topo,
                src,
                &AlwaysAwake,
                &ProtocolModel,
                &base.schedule,
                &delta,
                &cfg(0),
            );
            let cold = reschedule(
                &topo,
                src,
                &AlwaysAwake,
                &ProtocolModel,
                &Schedule {
                    source: src,
                    start: 1,
                    entries: Vec::new(),
                    repeats: Vec::new(),
                },
                &delta,
                &cfg(0),
            );
            assert!(rep.outcome.latency <= cold.outcome.latency);
        }
    }
}
