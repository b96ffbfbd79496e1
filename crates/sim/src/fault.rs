//! Fault injection: seeded node-death, link-flap, and burst-loss processes
//! replayed against a running schedule.
//!
//! `lossy` answers "how fragile is a schedule under iid loss"; this module
//! answers the harder operational questions the repair tier exists for:
//! what happens when a relay *dies mid-broadcast*, when a marginal link
//! drops out for a stretch of slots, or when interference bursts push the
//! whole network's loss floor up for a window. A [`FaultScript`] is a
//! deterministic, seeded event list generated once per experiment
//! (order-free per-entity hashing, so the same node dies at the same slot
//! regardless of how the script is consumed); [`replay_faulty`] replays a
//! schedule slot-by-slot under the script and the per-link quality, and
//! its outcome hands the surviving state straight to the repair tier:
//! [`FaultyOutcome::dead`] is exactly the delta `wsn_anytime::reschedule`
//! takes.

use crate::{derive_seed, splitmix64, unit};
use mlbs_core::Schedule;
use wsn_bitset::NodeSet;
use wsn_dutycycle::Slot;
use wsn_topology::{LinkQuality, NodeId, Topology};

/// One injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// `node` stops transmitting and receiving from slot `at` (inclusive).
    NodeDeath { node: NodeId, at: Slot },
    /// Link `(u, v)` delivers nothing during `[from, until)` — a flap.
    LinkFlap {
        u: NodeId,
        v: NodeId,
        from: Slot,
        until: Slot,
    },
    /// Every delivery carries `extra_loss` additional loss during
    /// `[from, until)` — an interference burst.
    Burst {
        extra_loss: f64,
        from: Slot,
        until: Slot,
    },
}

/// Rates of the seeded fault processes (all per replay horizon).
#[derive(Clone, Copy, Debug)]
pub struct FaultParams {
    /// Probability that a given non-source node dies during the replay.
    pub death_fraction: f64,
    /// Probability that a given flap-prone link (per [`LinkQuality`]'s
    /// flaky marking) flaps during the replay.
    pub flap_fraction: f64,
    /// Length of one flap, in slots.
    pub flap_len: Slot,
    /// Probability that a given burst window carries a burst.
    pub burst_rate: f64,
    /// Additional loss during a burst.
    pub burst_extra_loss: f64,
    /// Length of one burst window, in slots.
    pub burst_len: Slot,
}

impl Default for FaultParams {
    fn default() -> Self {
        FaultParams {
            death_fraction: 0.01,
            flap_fraction: 0.5,
            flap_len: 4,
            burst_rate: 0.1,
            burst_extra_loss: 0.4,
            burst_len: 8,
        }
    }
}

/// A deterministic, seeded event list (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct FaultScript {
    /// The injected faults, in no particular order (the replay indexes
    /// them by slot itself).
    pub events: Vec<Fault>,
}

impl FaultScript {
    /// Generates the three fault processes over `[start, horizon)`:
    /// node deaths (uniform death slot, source exempt), link flaps (only
    /// links `quality` marks flap-prone), and interference bursts (per
    /// window of `burst_len` slots). Deterministic in
    /// `(topo, quality, params, seed)` and order-free per entity.
    pub fn generate(
        topo: &Topology,
        quality: &LinkQuality,
        source: NodeId,
        start: Slot,
        horizon: Slot,
        params: &FaultParams,
        seed: u64,
    ) -> FaultScript {
        let span = horizon.saturating_sub(start).max(1);
        let mut events = Vec::new();
        // Node deaths.
        for u in topo.nodes() {
            if u == source {
                continue;
            }
            let w = derive_seed(seed, 1, u64::from(u.0));
            if unit(w) < params.death_fraction {
                let at = start + derive_seed(seed, 2, u64::from(u.0)) % span;
                events.push(Fault::NodeDeath { node: u, at });
            }
        }
        // Link flaps, one draw per undirected flap-prone edge.
        for u in topo.nodes() {
            for &v in topo.neighbors(u) {
                if u >= v || !quality.is_flaky(topo, u, v) {
                    continue;
                }
                let key = (u64::from(u.0) << 32) | u64::from(v.0);
                if unit(derive_seed(seed, 3, key)) < params.flap_fraction {
                    let from = start + derive_seed(seed, 4, key) % span;
                    events.push(Fault::LinkFlap {
                        u,
                        v,
                        from,
                        until: from + params.flap_len,
                    });
                }
            }
        }
        // Interference bursts, one draw per window.
        if params.burst_len > 0 {
            let windows = span.div_ceil(params.burst_len);
            for w in 0..windows {
                if unit(derive_seed(seed, 5, w)) < params.burst_rate {
                    let from = start + w * params.burst_len;
                    events.push(Fault::Burst {
                        extra_loss: params.burst_extra_loss,
                        from,
                        until: from + params.burst_len,
                    });
                }
            }
        }
        FaultScript { events }
    }
}

/// Outcome of one faulty replay.
#[derive(Clone, Debug)]
pub struct FaultyOutcome {
    /// Nodes that received the message.
    pub covered: NodeSet,
    /// Nodes dead by the end of the replay — feed this to
    /// `wsn_anytime::ChurnDelta` to repair the schedule.
    pub dead: Vec<NodeId>,
    /// Deliveries dropped by loss, flaps, or bursts.
    pub lost_deliveries: usize,
    /// Transmissions skipped because the sender was dead or never covered.
    pub stranded_transmissions: usize,
}

/// Replays `schedule` under per-link `quality` with `script`'s faults
/// applied slot-by-slot: dead senders skip their slots (and dead nodes
/// stop receiving), flapped links deliver nothing while down, bursts add
/// loss to every delivery in their window. Repeat slots fire the entry
/// once per occupied slot, so retransmissions planned by the reliability
/// tier actually ride out flaps and bursts here. Same draw discipline as
/// the lossy replay: one draw per candidate delivery, deterministic in
/// `seed`.
pub fn replay_faulty(
    topo: &Topology,
    schedule: &Schedule,
    quality: &LinkQuality,
    script: &FaultScript,
    seed: u64,
) -> FaultyOutcome {
    let n = topo.len();
    let mut rng = seed ^ 0x00fa_0175_eed5_u64;
    let mut covered = NodeSet::new(n);
    covered.insert(schedule.source.idx());
    let mut dead = NodeSet::new(n);
    let mut lost = 0;
    let mut stranded = 0;

    for (ei, entry) in schedule.entries.iter().enumerate() {
        for step in 0..schedule.repeat_of(ei) {
            let t = entry.slot + u64::from(step);
            // Fault state at slot t.
            let mut burst = 0.0f64;
            for e in &script.events {
                match e {
                    Fault::Burst {
                        extra_loss,
                        from,
                        until,
                    } if (*from..*until).contains(&t) => burst = burst.max(*extra_loss),
                    Fault::NodeDeath { node, at } if *at <= t => {
                        dead.insert(node.idx());
                    }
                    _ => {}
                }
            }
            for &u in &entry.senders {
                if dead.contains(u.idx()) || !covered.contains(u.idx()) {
                    stranded += 1;
                    continue;
                }
                for (k, &v) in topo.neighbors(u).iter().enumerate() {
                    if covered.contains(v.idx()) || dead.contains(v.idx()) {
                        continue;
                    }
                    let flapped = script.events.iter().any(|e| {
                        matches!(e, Fault::LinkFlap { u: a, v: b, from, until }
                            if (*from..*until).contains(&t)
                            && ((*a == u && *b == v) || (*a == v && *b == u)))
                    });
                    let loss = if flapped {
                        1.0
                    } else {
                        (1.0 - quality.delivery_at(u, k) + burst).min(1.0)
                    };
                    let draw = unit(splitmix64(&mut rng));
                    if draw < loss {
                        lost += 1;
                    } else {
                        covered.insert(v.idx());
                    }
                }
            }
        }
    }
    let mut dead_list: Vec<NodeId> = dead.iter().map(|u| NodeId(u as u32)).collect();
    dead_list.sort_unstable();
    FaultyOutcome {
        covered,
        dead: dead_list,
        lost_deliveries: lost,
        stranded_transmissions: stranded,
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
    fn script_is_deterministic_and_spares_the_source() {
        let (topo, src, s) = instance(150, 1);
        let q = LinkQuality::synthetic(&topo, &LinkQualityParams::default(), 5);
        let horizon = s.latency() + 1;
        let p = FaultParams {
            death_fraction: 0.2,
            ..FaultParams::default()
        };
        let a = FaultScript::generate(&topo, &q, src, s.start, horizon, &p, 9);
        let b = FaultScript::generate(&topo, &q, src, s.start, horizon, &p, 9);
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty());
        assert!(a
            .events
            .iter()
            .all(|e| !matches!(e, Fault::NodeDeath { node, .. } if *node == src)));
    }

    #[test]
    fn no_faults_no_loss_is_full_coverage() {
        let (topo, _, s) = instance(100, 2);
        let q = LinkQuality::uniform(&topo, 1.0);
        let out = replay_faulty(&topo, &s, &q, &FaultScript::default(), 3);
        assert!(out.covered.is_full());
        assert_eq!(out.lost_deliveries, 0);
        assert!(out.dead.is_empty());
    }

    #[test]
    fn early_relay_death_strands_its_subtree() {
        let (topo, src, s) = instance(150, 3);
        let q = LinkQuality::uniform(&topo, 1.0);
        // Kill an early relay (not the source) before it fires.
        let victim = s
            .entries
            .iter()
            .flat_map(|e| e.senders.iter().copied())
            .find(|&u| u != src)
            .unwrap();
        let script = FaultScript {
            events: vec![Fault::NodeDeath {
                node: victim,
                at: 0,
            }],
        };
        let out = replay_faulty(&topo, &s, &q, &script, 4);
        assert_eq!(out.dead, vec![victim]);
        assert!(
            !out.covered.is_full(),
            "a silenced relay must strand someone"
        );
        assert!(out.stranded_transmissions > 0 || out.covered.len() < topo.len());
    }

    #[test]
    fn bursts_and_flaps_cost_coverage() {
        let (topo, src, s) = instance(150, 4);
        let q = LinkQuality::synthetic(&topo, &LinkQualityParams::default(), 6);
        let horizon = s.latency() + 1;
        let quiet = replay_faulty(&topo, &s, &q, &FaultScript::default(), 7);
        let stormy_script = FaultScript::generate(
            &topo,
            &q,
            src,
            s.start,
            horizon,
            &FaultParams {
                death_fraction: 0.0,
                flap_fraction: 1.0,
                flap_len: horizon,
                burst_rate: 1.0,
                burst_extra_loss: 0.5,
                burst_len: 4,
            },
            8,
        );
        let stormy = replay_faulty(&topo, &s, &q, &stormy_script, 7);
        assert!(
            stormy.covered.len() < quiet.covered.len(),
            "storm {} vs quiet {}",
            stormy.covered.len(),
            quiet.covered.len()
        );
    }

    #[test]
    fn dead_set_feeds_repair() {
        use wsn_anytime::{reschedule, AnytimeConfig, Budget, ChurnDelta};
        use wsn_dutycycle::AlwaysAwake;
        use wsn_phy::ProtocolModel;
        let (topo, src, s) = instance(150, 5);
        let q = LinkQuality::uniform(&topo, 1.0);
        let victim = s
            .entries
            .iter()
            .flat_map(|e| e.senders.iter().copied())
            .find(|&u| u != src)
            .unwrap();
        let script = FaultScript {
            events: vec![Fault::NodeDeath {
                node: victim,
                at: 0,
            }],
        };
        let out = replay_faulty(&topo, &s, &q, &script, 6);
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(500),
            ..AnytimeConfig::default()
        };
        let rep = reschedule(
            &topo,
            src,
            &AlwaysAwake,
            &ProtocolModel,
            &s,
            &ChurnDelta::deaths(out.dead),
            &cfg,
        );
        rep.outcome
            .schedule
            .verify_covering_with_model(&topo, &AlwaysAwake, &ProtocolModel, Some(&rep.mask))
            .unwrap();
    }
}
