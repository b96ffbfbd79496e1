//! Online link-quality estimation from simulated ACK streams.
//!
//! The reliability planner provisions repeats against an *assumed*
//! [`LinkQuality`]; deployments drift. This module closes the loop the way
//! transport-wide congestion control (TWCC) does on the web: receivers
//! batch per-packet feedback, the sender keeps a *windowed* history per
//! link, and two signals are fused — a loss-based estimate (ACKed fraction
//! of the last `window` attempts) and a delay-based trend (EWMA of
//! reported ACK delay, rising delay discounting the estimate before losses
//! materialize). When the fused estimate drifts past a threshold from the
//! assumption the schedule was planned under, [`LinkEstimator::drift`]
//! crosses the repair trigger and the caller re-plans repeats (or
//! reschedules) against [`LinkEstimator::to_quality`].
//!
//! Everything is deterministic: [`simulate_acks`] replays a schedule
//! against the *true* quality with seeded draws and feeds the estimator
//! the resulting ACK stream, standing in for the radio.

use mlbs_core::Schedule;
use wsn_anytime::{plan_repeats, reschedule_cached, AnytimeConfig, ChurnDelta, ScheduleCache};
use wsn_dutycycle::WakeSchedule;
use wsn_phy::ConflictModel;
use wsn_topology::{LinkQuality, NodeId, Topology};

/// SplitMix64 step for the simulated ACK draws.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A draw in `[0, 1)`.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// Windowed per-link attempt history plus a delay EWMA (see module docs).
///
/// Per directed CSR link slot the estimator keeps the last `window`
/// attempt outcomes as a bitmask plus an attempt count, and an EWMA of
/// the ACK delay in slots. Storage is parallel to the topology's CSR
/// neighbor array, the same layout [`LinkQuality`] uses.
#[derive(Clone, Debug)]
pub struct LinkEstimator {
    /// Last-`window` outcomes per directed link, newest bit = bit 0.
    history: Vec<u64>,
    /// Attempts observed per directed link (saturating at `window`).
    seen: Vec<u32>,
    /// EWMA of ACK delay (slots) per directed link.
    delay: Vec<f64>,
    /// CSR row offsets.
    offsets: Vec<u32>,
    window: u32,
    /// Delay EWMA smoothing factor.
    alpha: f64,
    /// Delay discount strength: estimates shrink by
    /// `1 / (1 + beta · max(0, delay − 1))`.
    beta: f64,
}

impl LinkEstimator {
    /// A fresh estimator over `topo`'s links with the given attempt
    /// window (clamped to `1..=64`).
    pub fn new(topo: &Topology, window: u32) -> LinkEstimator {
        let window = window.clamp(1, 64);
        let n = topo.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut slots = 0usize;
        for u in topo.nodes() {
            slots += topo.neighbors(u).len();
            offsets.push(slots as u32);
        }
        LinkEstimator {
            history: vec![0; slots],
            seen: vec![0; slots],
            delay: vec![1.0; slots],
            offsets,
            window,
            alpha: 0.2,
            beta: 0.05,
        }
    }

    fn slot_of(&self, topo: &Topology, u: NodeId, v: NodeId) -> usize {
        let k = topo
            .neighbors(u)
            .binary_search(&v)
            .expect("estimator requires an existing link");
        self.offsets[u.idx()] as usize + k
    }

    /// Feeds one attempt over `u → v`: whether the ACK arrived, and the
    /// reported ACK delay in slots (ignored for lost attempts).
    pub fn observe(
        &mut self,
        topo: &Topology,
        u: NodeId,
        v: NodeId,
        acked: bool,
        delay_slots: f64,
    ) {
        let s = self.slot_of(topo, u, v);
        self.history[s] = (self.history[s] << 1) | u64::from(acked);
        self.seen[s] = (self.seen[s] + 1).min(self.window);
        if acked {
            self.delay[s] += self.alpha * (delay_slots - self.delay[s]);
        }
    }

    /// Attempts currently in `u → v`'s window.
    pub fn samples(&self, topo: &Topology, u: NodeId, v: NodeId) -> u32 {
        self.seen[self.slot_of(topo, u, v)]
    }

    /// The fused delivery estimate for `u → v`, or `None` below
    /// `min_samples` attempts (no evidence — keep the prior).
    pub fn estimate(&self, topo: &Topology, u: NodeId, v: NodeId, min_samples: u32) -> Option<f64> {
        let s = self.slot_of(topo, u, v);
        let n = self.seen[s];
        if n < min_samples.max(1) {
            return None;
        }
        let mask = if n as u64 >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        };
        let acked = (self.history[s] & mask).count_ones() as f64;
        let loss_based = acked / f64::from(n);
        // Delay-based discount: a rising ACK-delay trend signals queueing
        // or marginal links before losses show up in the window.
        let trend = (self.delay[s] - 1.0).max(0.0);
        Some(loss_based / (1.0 + self.beta * trend))
    }

    /// Largest absolute drift between the fused estimates and `assumed`,
    /// over links with at least `min_samples` attempts. `0.0` when no link
    /// has enough evidence.
    pub fn drift(&self, topo: &Topology, assumed: &LinkQuality, min_samples: u32) -> f64 {
        let mut worst = 0.0f64;
        for u in topo.nodes() {
            for (k, &v) in topo.neighbors(u).iter().enumerate() {
                let s = self.offsets[u.idx()] as usize + k;
                if self.seen[s] < min_samples.max(1) {
                    continue;
                }
                if let Some(est) = self.estimate(topo, u, v, min_samples) {
                    worst = worst.max((est - assumed.delivery_at(u, k)).abs());
                }
            }
        }
        if wsn_obs::enabled() {
            // Drift in per-mille so the integer gauge/event keeps three
            // significant digits of a [0, 1] quantity.
            let permille = (worst * 1000.0).round() as i64;
            wsn_obs::gauge_set("estimator.drift_permille", permille);
            wsn_obs::event_value("estimator.drift", permille);
        }
        worst
    }

    /// Materializes the estimates as a [`LinkQuality`]: links with enough
    /// evidence get their fused estimate (symmetrized by averaging the two
    /// directions), the rest keep `assumed`'s value — the quality a
    /// drift-triggered re-plan runs against.
    pub fn to_quality(
        &self,
        topo: &Topology,
        assumed: &LinkQuality,
        min_samples: u32,
    ) -> LinkQuality {
        let mut q = assumed.clone();
        for u in topo.nodes() {
            for &v in topo.neighbors(u) {
                if u >= v {
                    continue;
                }
                match (
                    self.estimate(topo, u, v, min_samples),
                    self.estimate(topo, v, u, min_samples),
                ) {
                    (Some(a), Some(b)) => {
                        q.set_delivery(topo, u, v, ((a + b) / 2.0).clamp(0.0, 1.0))
                    }
                    (Some(a), None) | (None, Some(a)) => {
                        q.set_delivery(topo, u, v, a.clamp(0.0, 1.0))
                    }
                    (None, None) => {}
                }
            }
        }
        q
    }
}

/// Outcome of [`replan_on_drift`]: whether the estimator's drift crossed
/// the trigger, and the schedule + quality the caller should serve from
/// now on.
#[derive(Clone, Debug)]
pub struct DriftReplan {
    /// Largest per-link drift the estimator reported.
    pub drift: f64,
    /// `true` when `drift ≥ threshold` and an incremental repair ran.
    pub replanned: bool,
    /// The quality the plan now assumes: the estimator's fused view on a
    /// replan, a clone of the old assumption otherwise.
    pub quality: LinkQuality,
    /// The schedule to serve: incrementally repaired and repeat-re-planned
    /// on a replan, a clone of `current` otherwise. Always verifies under
    /// the conflict model.
    pub schedule: Schedule,
    /// Links whose estimate moved by at least `threshold` (the
    /// `ChurnDelta::degraded_links` payload size).
    pub degraded_links: usize,
}

/// Closes the estimator loop incrementally: checks
/// [`LinkEstimator::drift`] against `threshold` and, when crossed, repairs
/// `current` through [`wsn_anytime::reschedule_cached`] with a
/// *quality-only* [`ChurnDelta`] (warm-starting from every surviving
/// placement — link drift invalidates no conflict structure) and re-plans
/// repeat slots against the fused estimate with
/// [`wsn_anytime::plan_repeats`].
///
/// This replaces the old "drift → throw the schedule away and re-solve"
/// pattern: repair cost is one warm legalizer replay plus whatever budget
/// `config` grants, a small fraction of a cold re-solve at scale (pinned
/// in `BENCH_serve.json`). Below the threshold nothing runs and `current`
/// is returned unchanged.
#[allow(clippy::too_many_arguments)]
pub fn replan_on_drift<S: WakeSchedule, M: ConflictModel>(
    cache: &mut ScheduleCache,
    topo: &Topology,
    source: NodeId,
    wake: &S,
    model: &M,
    current: &Schedule,
    assumed: &LinkQuality,
    est: &LinkEstimator,
    epsilon: f64,
    threshold: f64,
    min_samples: u32,
    config: &AnytimeConfig,
) -> DriftReplan {
    let drift = est.drift(topo, assumed, min_samples);
    if drift < threshold {
        return DriftReplan {
            drift,
            replanned: false,
            quality: assumed.clone(),
            schedule: current.clone(),
            degraded_links: 0,
        };
    }
    let quality = est.to_quality(topo, assumed, min_samples);
    // The quality delta: links whose fused estimate moved by at least the
    // trigger (one entry per undirected edge).
    let mut degraded = Vec::new();
    for u in topo.nodes() {
        for (k, &v) in topo.neighbors(u).iter().enumerate() {
            if u >= v {
                continue;
            }
            let newp = quality.delivery_at(u, k);
            if (newp - assumed.delivery_at(u, k)).abs() >= threshold {
                degraded.push((u, v, newp));
            }
        }
    }
    let degraded_links = degraded.len();
    let rep = reschedule_cached(
        cache,
        topo,
        source,
        wake,
        model,
        &ChurnDelta::degradations(degraded),
        config,
    );
    let schedule = if epsilon > 0.0 {
        plan_repeats(&rep.outcome.schedule, topo, wake, model, &quality, epsilon)
    } else {
        rep.outcome.schedule
    };
    wsn_obs::counter_add("estimator.replans", 1);
    wsn_obs::counter_add("estimator.replan_degraded_links", degraded_links as u64);
    DriftReplan {
        drift,
        replanned: true,
        quality,
        schedule,
        degraded_links,
    }
}

/// Replays `schedule` `rounds` times against the *true* quality and feeds
/// the estimator the resulting ACK stream: every candidate delivery is one
/// attempt, delivered with the true per-link probability; ACK delay is the
/// entry's position in the schedule (later entries see longer feedback
/// loops, the TWCC-style delay signal). Deterministic in `seed`.
pub fn simulate_acks(
    topo: &Topology,
    schedule: &Schedule,
    truth: &LinkQuality,
    est: &mut LinkEstimator,
    rounds: u32,
    seed: u64,
) {
    let mut rng = seed ^ 0x00ac_c57a_ea11_u64;
    for _ in 0..rounds {
        for (ei, entry) in schedule.entries.iter().enumerate() {
            let delay = 1.0 + ei as f64 / schedule.entries.len().max(1) as f64;
            for step in 0..schedule.repeat_of(ei) {
                let _ = step;
                for &u in &entry.senders {
                    for (k, &v) in topo.neighbors(u).iter().enumerate() {
                        let p = truth.delivery_at(u, k);
                        let acked = unit(splitmix64(&mut rng)) < p;
                        est.observe(topo, u, v, acked, delay);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_topology::deploy::SyntheticDeployment;
    use wsn_topology::LinkQualityParams;

    fn instance(n: usize, seed: u64) -> (Topology, NodeId, Schedule) {
        let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
        let s = wsn_baselines::schedule_26_approx(&topo, src);
        (topo, src, s)
    }

    #[test]
    fn estimator_converges_to_truth() {
        let (topo, _, s) = instance(120, 1);
        let truth = LinkQuality::uniform(&topo, 0.7);
        let mut est = LinkEstimator::new(&topo, 64);
        simulate_acks(&topo, &s, &truth, &mut est, 80, 5);
        // Drift against the truth itself must be small once converged.
        let d = est.drift(&topo, &truth, 32);
        assert!(d < 0.2, "drift vs truth after convergence: {d:.3}");
    }

    #[test]
    fn drift_detects_degraded_links() {
        let (topo, _, s) = instance(120, 2);
        let assumed = LinkQuality::uniform(&topo, 0.95);
        let degraded = LinkQuality::uniform(&topo, 0.5);
        let mut est = LinkEstimator::new(&topo, 64);
        simulate_acks(&topo, &s, &degraded, &mut est, 80, 6);
        let drift = est.drift(&topo, &assumed, 32);
        assert!(
            drift > 0.25,
            "a 0.95→0.5 degradation must register: {drift:.3}"
        );
    }

    #[test]
    fn to_quality_reflects_estimates_and_keeps_priors() {
        let (topo, _, s) = instance(120, 3);
        let assumed = LinkQuality::synthetic(&topo, &LinkQualityParams::default(), 7);
        let truth = LinkQuality::uniform(&topo, 0.6);
        let mut est = LinkEstimator::new(&topo, 64);
        simulate_acks(&topo, &s, &truth, &mut est, 60, 8);
        let q = est.to_quality(&topo, &assumed, 32);
        // Links the schedule exercises move toward 0.6; untouched links
        // keep the assumed prior exactly.
        let mut moved = 0;
        let mut kept = 0;
        for u in topo.nodes() {
            for &v in topo.neighbors(u) {
                let before = assumed.delivery(&topo, u, v);
                let after = q.delivery(&topo, u, v);
                if (after - before).abs() > 1e-12 {
                    moved += 1;
                } else {
                    kept += 1;
                }
            }
        }
        assert!(moved > 0, "exercised links must re-estimate");
        let _ = kept;
        let _ = s;
    }

    #[test]
    fn drift_replan_routes_through_the_cache_and_stays_incremental() {
        use wsn_anytime::{AnytimeConfig, Budget, Portfolio, ScheduleCache};
        use wsn_dutycycle::AlwaysAwake;
        use wsn_phy::ProtocolModel;
        let (topo, src) = SyntheticDeployment::paper(150).sample(10);
        let assumed = LinkQuality::uniform(&topo, 0.99);
        let truth = LinkQuality::uniform(&topo, 0.8);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(5_000),
            ..AnytimeConfig::default()
        };
        let mut cache = ScheduleCache::new();
        let base = Portfolio::with_config(cfg, 1).solve(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            Some(&mut cache),
        );
        let mut est = LinkEstimator::new(&topo, 64);
        simulate_acks(&topo, &base.schedule, &truth, &mut est, 80, 11);
        let repair_cfg = AnytimeConfig {
            budget: Budget::Iterations(0),
            ..AnytimeConfig::default()
        };
        let eps = 0.05;
        let rp = replan_on_drift(
            &mut cache,
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &base.schedule,
            &assumed,
            &est,
            eps,
            0.05,
            32,
            &repair_cfg,
        );
        assert!(rp.replanned, "0.99→0.8 must cross a 0.05 trigger");
        assert!(rp.drift > 0.05);
        assert!(rp.degraded_links > 0);
        // The repaired + repeat-re-planned schedule is reliable under the
        // quality the estimator actually measured.
        rp.schedule
            .verify_reliability(&topo, &AlwaysAwake, &ProtocolModel, &rp.quality, eps)
            .unwrap();
        // Below the threshold nothing runs: same schedule back, quality
        // untouched.
        let quiet = replan_on_drift(
            &mut cache,
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &base.schedule,
            &assumed,
            &est,
            eps,
            1.1,
            32,
            &repair_cfg,
        );
        assert!(!quiet.replanned);
        assert_eq!(quiet.degraded_links, 0);
        assert_eq!(quiet.schedule.entries.len(), base.schedule.entries.len());
        assert!(quiet.quality.is_uniform(0.99));
    }

    #[test]
    fn drift_triggers_replan_that_restores_reliability() {
        use wsn_anytime::{solve_anytime_reliable, AnytimeConfig, Budget};
        use wsn_dutycycle::AlwaysAwake;
        use wsn_phy::ProtocolModel;
        let (topo, src) = SyntheticDeployment::paper(100).sample(4);
        let assumed = LinkQuality::uniform(&topo, 0.99);
        let truth = LinkQuality::uniform(&topo, 0.85);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(2_000),
            ..AnytimeConfig::default()
        };
        let eps = 0.05;
        let planned = solve_anytime_reliable(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &assumed,
            eps,
            &cfg,
        );
        // The world is worse than assumed: the estimator notices.
        let mut est = LinkEstimator::new(&topo, 64);
        simulate_acks(&topo, &planned.schedule, &truth, &mut est, 80, 9);
        let drift = est.drift(&topo, &assumed, 32);
        assert!(drift > 0.05, "drift must cross the trigger: {drift:.3}");
        // Re-plan against the estimate: reliability verifies against the
        // re-estimated quality where the stale plan need not.
        let q = est.to_quality(&topo, &assumed, 32);
        let replanned =
            solve_anytime_reliable(&topo, src, &AlwaysAwake, &ProtocolModel, &q, eps, &cfg);
        replanned
            .schedule
            .verify_reliability(&topo, &AlwaysAwake, &ProtocolModel, &q, eps)
            .unwrap();
        assert!(replanned.schedule.slot_budget() >= planned.schedule.slot_budget());
    }
}
