//! The BFS-layered scheduling engine behind the 26- and 17-approximations.

use mlbs_core::{BroadcastState, Schedule, ScheduleEntry};
use wsn_bitset::NodeSet;
use wsn_dutycycle::{AlwaysAwake, Slot, WakeSchedule};
use wsn_topology::{metrics, NodeId, Topology};

/// How a layer schedules its colors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayeredMode {
    /// The paper's reading of the baselines (§I: coloring happens once per
    /// 1-hop propagation, "each relay with any unselected color \[backs\]
    /// off"): the layer is colored once, colors fire strictly in sequence.
    /// Members whose neighborhoods are fully informed by the time their
    /// color fires skip silently, but colors are never merged.
    FixedColors,
    /// A stronger variant that re-runs the greedy coloring every slot
    /// within the layer, letting colors merge as conflicts disappear.
    /// Still bound by the layer barrier, so it separates "barrier cost"
    /// from "stale coloring cost".
    Recolor,
    /// The weakest (fully rigid, TDMA-like) variant: the per-layer
    /// coloring is a *precomputed schedule* — every member of every color
    /// transmits in its color's turn whether or not anyone still needs the
    /// message. The upper end of how prior-art implementations behave;
    /// part of the baseline-strength ablation.
    Precomputed,
}

/// Runs the layered (hop-distance) discipline: only nodes of the current
/// BFS layer may relay, and the next layer starts only when the current
/// layer has no candidate left — the synchronization barrier of the
/// approximation schemes. Slots where no pending relay is awake are
/// skipped by jumping to the next wake-up (the `1 ≤ k ≤ 2r` back-off wait
/// of §V-A).
///
/// # Panics
///
/// Panics when the topology is disconnected.
pub fn schedule_layered<S: WakeSchedule>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    start_from: Slot,
    mode: LayeredMode,
) -> Schedule {
    schedule_layered_with(
        topo,
        source,
        wake,
        start_from,
        mode,
        &mut BroadcastState::new(),
    )
}

/// As [`schedule_layered`], reusing a caller-provided substrate across
/// instances (the sweep workers hold one each).
pub fn schedule_layered_with<S: WakeSchedule>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    start_from: Slot,
    mode: LayeredMode,
    sub: &mut BroadcastState,
) -> Schedule {
    let n = topo.len();
    let hops = metrics::bfs_hops(topo, source);
    assert!(
        hops.iter().all(|&h| h != metrics::UNREACHABLE),
        "broadcast cannot complete: disconnected topology"
    );
    let depth = hops.iter().copied().max().unwrap_or(0);
    sub.reset_for(topo);

    let t_s = wake.next_send(source.idx(), start_from);
    let mut state = LayerRun {
        topo,
        wake,
        sub,
        informed: {
            let mut w = NodeSet::new(n);
            w.insert(source.idx());
            w
        },
        entries: Vec::new(),
        t: t_s,
    };

    for layer in 0..depth {
        let layer_nodes: Vec<NodeId> = (0..n)
            .filter(|&u| hops[u] == layer)
            .map(|u| NodeId(u as u32))
            .collect();
        match mode {
            LayeredMode::FixedColors => state.run_layer_fixed(&layer_nodes),
            LayeredMode::Recolor => state.run_layer_recolor(&layer_nodes),
            LayeredMode::Precomputed => state.run_layer_precomputed(&layer_nodes),
        }
    }

    Schedule {
        source,
        start: t_s,
        entries: state.entries,
        repeats: Vec::new(),
    }
}

/// Working state of a layered run.
struct LayerRun<'a, S: WakeSchedule> {
    topo: &'a Topology,
    wake: &'a S,
    /// Shared substrate: scratch sets and the incremental conflict graph
    /// behind the per-layer colorings.
    sub: &'a mut BroadcastState,
    informed: NodeSet,
    entries: Vec<ScheduleEntry>,
    t: Slot,
}

impl<S: WakeSchedule> LayerRun<'_, S> {
    /// `true` while `u` still has an uninformed neighbor (degree-local —
    /// this runs per pending relay per slot, so it must not touch
    /// `O(n/64)`-word sets on 100k-node instances).
    fn still_useful(&self, u: NodeId) -> bool {
        self.topo
            .neighbors(u)
            .iter()
            .any(|&v| !self.informed.contains(v.idx()))
    }

    /// Colors an explicit candidate list against the current informed set
    /// through the substrate.
    fn classes_of(&mut self, candidates: &[NodeId]) -> Vec<Vec<NodeId>> {
        self.sub
            .load_candidates(self.topo, &self.informed, candidates);
        self.sub.greedy_classes(self.topo)
    }

    /// Transmits `senders` (assumed conflict-free) in slot `self.t`.
    fn fire(&mut self, mut senders: Vec<NodeId>) {
        for &u in &senders {
            for &w in self.topo.neighbors(u) {
                self.informed.insert(w.idx());
            }
        }
        senders.sort_unstable();
        self.entries.push(ScheduleEntry::new(self.t, senders));
        self.t += 1;
    }

    /// FixedColors: color the layer once, fire colors strictly in order.
    fn run_layer_fixed(&mut self, layer_nodes: &[NodeId]) {
        let candidates: Vec<NodeId> = layer_nodes
            .iter()
            .copied()
            .filter(|&u| self.informed.contains(u.idx()) && self.still_useful(u))
            .collect();
        if candidates.is_empty() {
            return;
        }
        let classes = self.classes_of(&candidates);
        for class in classes {
            let mut pending: Vec<NodeId> = class;
            loop {
                // Members whose whole neighborhood got informed meanwhile
                // back out silently.
                pending.retain(|&u| self.still_useful(u));
                if pending.is_empty() {
                    break;
                }
                let awake: Vec<NodeId> = pending
                    .iter()
                    .copied()
                    .filter(|&u| self.wake.can_send(u.idx(), self.t))
                    .collect();
                if awake.is_empty() {
                    self.t = pending
                        .iter()
                        .map(|u| self.wake.next_send(u.idx(), self.t + 1))
                        .min()
                        .expect("pending non-empty");
                    continue;
                }
                pending.retain(|u| !awake.contains(u));
                self.fire(awake);
            }
        }
    }

    /// Precomputed: the layer's coloring is a fixed TDMA schedule; every
    /// member transmits in its color's turn, useful or not.
    fn run_layer_precomputed(&mut self, layer_nodes: &[NodeId]) {
        let candidates: Vec<NodeId> = layer_nodes
            .iter()
            .copied()
            .filter(|&u| self.informed.contains(u.idx()) && self.still_useful(u))
            .collect();
        if candidates.is_empty() {
            return;
        }
        let classes = self.classes_of(&candidates);
        for class in classes {
            let mut pending: Vec<NodeId> = class;
            while !pending.is_empty() {
                let awake: Vec<NodeId> = pending
                    .iter()
                    .copied()
                    .filter(|&u| self.wake.can_send(u.idx(), self.t))
                    .collect();
                if awake.is_empty() {
                    self.t = pending
                        .iter()
                        .map(|u| self.wake.next_send(u.idx(), self.t + 1))
                        .min()
                        .expect("pending non-empty");
                    continue;
                }
                pending.retain(|u| !awake.contains(u));
                self.fire(awake);
            }
        }
    }

    /// Recolor: re-run the greedy coloring every slot within the layer and
    /// fire its first color.
    fn run_layer_recolor(&mut self, layer_nodes: &[NodeId]) {
        loop {
            let candidates: Vec<NodeId> = layer_nodes
                .iter()
                .copied()
                .filter(|&u| self.informed.contains(u.idx()) && self.still_useful(u))
                .collect();
            if candidates.is_empty() {
                break;
            }
            let awake: Vec<NodeId> = candidates
                .iter()
                .copied()
                .filter(|&u| self.wake.can_send(u.idx(), self.t))
                .collect();
            if awake.is_empty() {
                self.t = candidates
                    .iter()
                    .map(|u| self.wake.next_send(u.idx(), self.t + 1))
                    .min()
                    .expect("candidates non-empty");
                continue;
            }
            let classes = self.classes_of(&awake);
            self.fire(classes[0].clone());
        }
    }
}

/// The 26-approximation baseline (synchronous): BFS layers, one greedy
/// coloring per layer, colors fired in sequence behind the layer barrier.
pub fn schedule_26_approx(topo: &Topology, source: NodeId) -> Schedule {
    schedule_layered(topo, source, &AlwaysAwake, 1, LayeredMode::FixedColors)
}

/// The 17-approximation baseline (duty-cycle): the layered discipline under
/// a wake schedule, backed-off relays waiting for their next wake-up.
pub fn schedule_17_approx<S: WakeSchedule>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    start_from: Slot,
) -> Schedule {
    schedule_layered(topo, source, wake, start_from, LayeredMode::FixedColors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlbs_core::{solve_gopt, SearchConfig};
    use wsn_dutycycle::WindowedRandom;
    use wsn_topology::{deploy, fixtures};

    #[test]
    fn layered_schedules_verify() {
        for seed in 0..4u64 {
            let (topo, src) = deploy::SyntheticDeployment::paper(90).sample(seed);
            for mode in [LayeredMode::FixedColors, LayeredMode::Recolor] {
                let s = schedule_layered(&topo, src, &AlwaysAwake, 1, mode);
                s.verify(&topo, &AlwaysAwake).unwrap();
            }
        }
    }

    #[test]
    fn layer_barrier_blocks_pipelining_on_fig1() {
        // On Figure 1 the barrier costs 4 rounds (s; then 0; then 1; then 3
        // — node 2 backs out redundant), whereas the paper's pipelined
        // optimum is 3.
        let f = fixtures::fig1();
        let s = schedule_26_approx(&f.topo, f.source);
        s.verify(&f.topo, &AlwaysAwake).unwrap();
        assert_eq!(s.latency(), 4);
        let opt = solve_gopt(&f.topo, f.source, &AlwaysAwake, &SearchConfig::default());
        assert!(s.latency() > opt.latency);
    }

    #[test]
    fn baseline_strength_ordering() {
        // Recolor ≤ FixedColors ≤ Precomputed: each step removes an
        // inefficiency of the rigid prior-art reading.
        for seed in 0..5u64 {
            let (topo, src) = deploy::SyntheticDeployment::paper(150).sample(seed);
            let pre = schedule_layered(&topo, src, &AlwaysAwake, 1, LayeredMode::Precomputed);
            let fixed = schedule_layered(&topo, src, &AlwaysAwake, 1, LayeredMode::FixedColors);
            let recolor = schedule_layered(&topo, src, &AlwaysAwake, 1, LayeredMode::Recolor);
            pre.verify(&topo, &AlwaysAwake).unwrap();
            assert!(
                recolor.latency() <= fixed.latency(),
                "seed {seed}: recolor {} > fixed {}",
                recolor.latency(),
                fixed.latency()
            );
            assert!(
                fixed.latency() <= pre.latency(),
                "seed {seed}: fixed {} > precomputed {}",
                fixed.latency(),
                pre.latency()
            );
        }
    }

    #[test]
    fn senders_respect_layer_order() {
        let f = fixtures::fig1();
        let s = schedule_26_approx(&f.topo, f.source);
        let hops = metrics::bfs_hops(&f.topo, f.source);
        let mut current_layer = 0;
        for e in &s.entries {
            for &u in &e.senders {
                let layer = hops[u.idx()];
                assert!(
                    layer >= current_layer,
                    "sender from layer {layer} after layer {current_layer} started"
                );
                current_layer = current_layer.max(layer);
            }
            // All senders of one slot share a layer under the barrier.
            let layers: std::collections::BTreeSet<u32> =
                e.senders.iter().map(|u| hops[u.idx()]).collect();
            assert_eq!(layers.len(), 1);
        }
    }

    #[test]
    fn duty_cycle_layered_verifies_and_is_slower() {
        for seed in 0..3u64 {
            let (topo, src) = deploy::SyntheticDeployment::paper(80).sample(seed);
            let wake = WindowedRandom::new(topo.len(), 10, seed ^ 0xabc);
            let duty = schedule_17_approx(&topo, src, &wake, 1);
            duty.verify(&topo, &wake).unwrap();
            let sync = schedule_26_approx(&topo, src);
            assert!(
                duty.latency() >= sync.latency(),
                "cycle waiting cannot make the layered scheme faster"
            );
        }
    }

    #[test]
    fn trivial_networks() {
        // Two nodes: one transmission.
        let topo = wsn_topology::Topology::unit_disk(
            vec![
                wsn_geom::Point::new(0.0, 0.0),
                wsn_geom::Point::new(1.0, 0.0),
            ],
            1.5,
        );
        let s = schedule_26_approx(&topo, NodeId(0));
        s.verify(&topo, &AlwaysAwake).unwrap();
        assert_eq!(s.latency(), 1);
        // Single node: empty schedule.
        let topo1 = wsn_topology::Topology::unit_disk(vec![wsn_geom::Point::new(0.0, 0.0)], 1.0);
        let s1 = schedule_26_approx(&topo1, NodeId(0));
        assert!(s1.entries.is_empty());
    }
}
