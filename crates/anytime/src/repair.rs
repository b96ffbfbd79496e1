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
//! 1. the dead mask (plus any alive nodes the deaths disconnected) is
//!    threaded through the legalizer and the chain driver — dead nodes
//!    never transmit, are owed no coverage, and stop witnessing conflicts;
//! 2. the old schedule, minus its dead senders, seeds the first
//!    legalization as hints: surviving placements are re-admitted in their
//!    old slots where still legal, and the greedy frontier fill re-serves
//!    exactly the stranded subtree — repair effort scales with the damage,
//!    not the network;
//! 3. the remaining budget runs the ordinary tabu/PARTIALCOL chain under
//!    the mask, so the improving-bound trace continues monotonically from
//!    the repaired seed.
//!
//! The result never loses to re-legalizing from scratch — [`reschedule`]
//! races the warm chain against one cold greedy construction and keeps the
//! better — and always verifies under
//! [`Schedule::verify_covering_with_model`] with the effective mask.
//! [`reschedule_cached`] pulls the pre-churn incumbent out of a
//! [`ScheduleCache`] (repaired schedules are deliberately *not* written
//! back: cache entries must verify on the full topology).

use mlbs_core::Schedule;
use wsn_bitset::NodeSet;
use wsn_dutycycle::WakeSchedule;
use wsn_phy::ConflictModel;
use wsn_topology::{metrics, NodeId, Topology};

use crate::cache::ScheduleCache;
use crate::driver::{run_chain, AnytimeConfig, AnytimeOutcome, Budget, ChainCtx};

/// A churn event batch: the nodes that died since the schedule was built,
/// plus any links whose estimated *quality* drifted.
///
/// Quality changes never invalidate a schedule's *conflict* structure —
/// only its reliability plan — so [`reschedule`] ignores
/// [`degraded_links`](ChurnDelta::degraded_links) when computing the dead
/// mask: a quality-only delta warm-starts from *every* surviving placement
/// (the whole old schedule), and the caller re-plans repeats against the
/// new quality afterwards ([`plan_repeats`](crate::plan_repeats), or
/// `wsn_sim`'s drift-replan driver which does both in one step). The field
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
    /// silent (the stranded subtree, including any now-unreachable part).
    pub stranded: usize,
    /// Sender placements of the old schedule that survived the churn and
    /// seeded the repair.
    pub reused: usize,
}

/// Replays `old` with `mask` applied and counts the alive nodes it no
/// longer informs (dead senders skipped, receptions re-resolved by the
/// model — exactly the subtree the repair must re-serve).
fn stranded_under<M: ConflictModel>(
    old: &Schedule,
    topo: &Topology,
    model: &M,
    mask: &NodeSet,
) -> usize {
    let n = topo.len();
    let mut informed = NodeSet::new(n);
    informed.insert(old.source.idx());
    informed.union_with(mask);
    for entry in &old.entries {
        let uninformed = informed.complement();
        let mut channels: Vec<u8> = Vec::new();
        for i in 0..entry.senders.len() {
            let c = entry.channel_of(i);
            if !channels.contains(&c) {
                channels.push(c);
            }
        }
        for &c in &channels {
            let mut senders = NodeSet::new(n);
            for (i, &u) in entry.senders.iter().enumerate() {
                if entry.channel_of(i) == c && !mask.contains(u.idx()) && informed.contains(u.idx())
                {
                    senders.insert(u.idx());
                }
            }
            if senders.is_empty() {
                continue;
            }
            let outcome = model.resolve_receptions(topo, &senders, &uninformed);
            for w in outcome.received.iter() {
                informed.insert(w);
            }
        }
    }
    n - informed.len()
}

/// `old` minus every masked sender (entries emptied by the filter are
/// dropped). Not necessarily a valid schedule — it is only ever used as
/// legalizer hints, which re-check every admission.
fn filter_schedule(old: &Schedule, mask: &NodeSet) -> (Schedule, usize) {
    let mut filtered = Schedule {
        source: old.source,
        start: old.start,
        entries: Vec::new(),
        receive_slot: old.receive_slot.clone(),
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
/// obligation rather than panicking, and the result never has higher
/// latency than a cold greedy re-legalization under the same mask.
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
    let stranded = stranded_under(old, topo, model, &mask);

    // Alive nodes disconnected by the deaths are unreachable by *any*
    // schedule: fold them into the mask and report them.
    let hops = metrics::bfs_hops_masked(topo, source, &mask);
    let mut uncovered = Vec::new();
    for (u, &h) in hops.iter().enumerate() {
        if h == metrics::UNREACHABLE && !mask.contains(u) {
            uncovered.push(NodeId(u as u32));
            mask.insert(u);
        }
    }
    let (filtered, reused) = filter_schedule(old, &mask);

    let warm_started = repair_started.map(|_| std::time::Instant::now());
    let mut outcome = run_chain(
        topo,
        source,
        wake,
        model,
        config,
        ChainCtx {
            shared: None,
            warm: Some(&filtered),
            dead: Some(&mask),
        },
    );
    if let Some(t0) = warm_started {
        wsn_obs::observe_us("repair.warm_us", t0.elapsed().as_micros() as u64);
    }
    // Guarantee "never worse than re-legalizing from scratch": race one
    // cold greedy construction under the same mask.
    let cold_cfg = AnytimeConfig {
        budget: Budget::Iterations(0),
        ..config.clone()
    };
    let cold_started = repair_started.map(|_| std::time::Instant::now());
    let cold = run_chain(
        topo,
        source,
        wake,
        model,
        &cold_cfg,
        ChainCtx {
            shared: None,
            warm: None,
            dead: Some(&mask),
        },
    );
    if let Some(t0) = cold_started {
        wsn_obs::observe_us("repair.cold_us", t0.elapsed().as_micros() as u64);
    }
    let cold_won = cold.latency < outcome.latency;
    if cold_won {
        outcome = cold;
    }
    debug_assert!(outcome
        .schedule
        .verify_covering_with_model(topo, wake, model, Some(&mask))
        .is_ok());
    if let Some(t0) = repair_started {
        // Race outcome: which arm produced the kept schedule. Ties go to
        // the warm chain (it already embeds the cold construction's
        // quality floor via the `<` comparison above).
        wsn_obs::counter_add(
            if cold_won {
                "repair.cold_wins"
            } else {
                "repair.warm_wins"
            },
            1,
        );
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

/// As [`reschedule`], warm-starting from the pre-churn incumbent a
/// [`ScheduleCache`] holds for `(topo, model, source)`. On a cache miss
/// the repair falls back to a cold masked solve (the delta still applies).
/// Repaired schedules are *not* written back — cache entries must verify
/// on the full topology, which a masked schedule deliberately does not.
pub fn reschedule_cached<S: WakeSchedule, M: ConflictModel>(
    cache: &mut ScheduleCache,
    topo: &Topology,
    source: NodeId,
    wake: &S,
    model: &M,
    delta: &ChurnDelta,
    config: &AnytimeConfig,
) -> RepairOutcome {
    match cache.lookup(topo, model, source) {
        Some(old) => reschedule(topo, source, wake, model, &old, delta, config),
        None => {
            // No incumbent to repair: a masked cold solve, reported with an
            // empty reuse footprint.
            let empty = Schedule {
                source,
                start: config.start_from,
                entries: Vec::new(),
                receive_slot: Vec::new(),
                repeats: Vec::new(),
            };
            reschedule(topo, source, wake, model, &empty, delta, config)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::solve_anytime;
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
    fn cached_repair_uses_the_incumbent() {
        let (topo, src) = deploy::SyntheticDeployment::paper(120).sample(8);
        let mut cache = ScheduleCache::new();
        crate::Portfolio::with_config(cfg(2_000), 1).solve(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            Some(&mut cache),
        );
        let victim = NodeId(if src.0 == 0 { 1 } else { 0 });
        let rep = reschedule_cached(
            &mut cache,
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &ChurnDelta::deaths([victim]),
            &cfg(500),
        );
        assert!(rep.reused > 0, "cache hit must seed the repair");
        rep.outcome
            .schedule
            .verify_covering_with_model(&topo, &AlwaysAwake, &ProtocolModel, Some(&rep.mask))
            .unwrap();
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
                    receive_slot: Vec::new(),
                    repeats: Vec::new(),
                },
                &delta,
                &cfg(0),
            );
            assert!(rep.outcome.latency <= cold.outcome.latency);
        }
    }
}
