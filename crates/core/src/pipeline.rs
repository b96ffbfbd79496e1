//! The pipelined advance engine: one forward pass, re-coloring after every
//! advance.
//!
//! This is the execution discipline shared by the practical schedulers: at
//! each slot, compute the eligible (and awake) candidates against the
//! *current* informed set, run the extended greedy color scheme, ask a
//! [`ColorSelector`] which color to launch, and advance. Unselected relays
//! are re-labeled next slot together with freshly informed nodes — the
//! paper's pipeline (§IV-A). The engine never blocks on a BFS layer.

use crate::schedule::{Schedule, ScheduleEntry};
use wsn_bitset::NodeSet;
use wsn_coloring::BroadcastState;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_phy::{ConflictModel, ProtocolModel};
use wsn_topology::{NodeId, Topology};

/// Chooses which greedy color class to launch at each advance.
pub trait ColorSelector {
    /// Returns the index of the class to launch. `classes` is non-empty
    /// and each class is non-empty; `state` is loaded with the current `W`
    /// (so `state.uninformed()` is `W̄` with no per-slot allocation).
    fn select(
        &mut self,
        topo: &Topology,
        state: &BroadcastState,
        classes: &[Vec<NodeId>],
        slot: Slot,
    ) -> usize;
}

/// The plain greedy policy: always launch `C_1`, the class led by the
/// candidate with the most receivers. This is the selector ablated against
/// the E-model (it has no global awareness at all).
#[derive(Clone, Debug, Default)]
pub struct MaxReceiversSelector;

impl ColorSelector for MaxReceiversSelector {
    fn select(
        &mut self,
        _topo: &Topology,
        _state: &BroadcastState,
        _classes: &[Vec<NodeId>],
        _slot: Slot,
    ) -> usize {
        0
    }
}

/// Pipeline execution parameters.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// The slot from which the source may first transmit; the actual start
    /// `t_s` is the source's first sending slot at or after this. The
    /// paper's examples start at 1 (Tables II/III) or 2 (Table IV).
    pub start_from: Slot,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { start_from: 1 }
    }
}

/// Runs the pipelined broadcast from `source` and returns the schedule.
///
/// Works for both timing regimes: with [`wsn_dutycycle::AlwaysAwake`] this
/// is the round-based system; with a duty-cycle schedule, slots where no
/// eligible sender is awake are skipped by jumping straight to the next
/// wake-up among eligible senders (the paper's `N/A → φ` rows in
/// Table IV).
///
/// # Panics
///
/// Panics if the topology is disconnected (the broadcast cannot complete)
/// or `source` is out of range.
pub fn run_pipeline<S: WakeSchedule, C: ColorSelector>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    selector: &mut C,
    config: &PipelineConfig,
) -> Schedule {
    run_pipeline_with(
        topo,
        source,
        wake,
        selector,
        config,
        &mut BroadcastState::new(),
    )
}

/// As [`run_pipeline`], with a caller-provided [`BroadcastState`] so hot
/// loops (sweeps, searches) reuse one substrate — scratch sets, candidate
/// buffers and the incremental conflict graph — across runs instead of
/// allocating per instance.
pub fn run_pipeline_with<S: WakeSchedule, C: ColorSelector>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    selector: &mut C,
    config: &PipelineConfig,
    state: &mut BroadcastState,
) -> Schedule {
    run_pipeline_model(topo, source, wake, &ProtocolModel, selector, config, state)
}

/// As [`run_pipeline_with`], under an arbitrary [`ConflictModel`]: the
/// greedy classes are colored on the model's conflict graph, and with a
/// multi-channel model the selected class transmits on channel 0 while the
/// remaining candidates fill channels `1..K` greedily
/// (`BroadcastState::pack_channels_with`). The default protocol model
/// takes exactly the pre-model code path.
pub fn run_pipeline_model<S: WakeSchedule, C: ColorSelector, M: ConflictModel>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    model: &M,
    selector: &mut C,
    config: &PipelineConfig,
    state: &mut BroadcastState,
) -> Schedule {
    assert!(source.idx() < topo.len(), "source out of range");
    let n = topo.len();
    let t_s = wake.next_send(source.idx(), config.start_from);
    state.reset_for(topo);

    let mut informed = NodeSet::new(n);
    informed.insert(source.idx());
    let mut entries: Vec<ScheduleEntry> = Vec::new();
    let mut t = t_s;

    while !informed.is_full() {
        state.load_awake(topo, &informed, wake, t);
        if state.candidates().is_empty() {
            // Jump to the earliest slot at which any eligible sender wakes.
            state.load(topo, &informed);
            let eligible = state.candidates();
            assert!(
                !eligible.is_empty(),
                "broadcast cannot complete: no eligible sender for uninformed nodes \
                 (disconnected topology?)"
            );
            t = eligible
                .iter()
                .map(|u| wake.next_send(u.idx(), t + 1))
                .min()
                .expect("non-empty eligible set");
            continue;
        }

        let classes = state.greedy_classes_with(topo, model);
        let choice = selector.select(topo, state, &classes, t);
        assert!(choice < classes.len(), "selector returned invalid class");
        let (senders, channels) = if model.channels() > 1 {
            state.pack_channels_with(topo, model, &classes[choice])
        } else {
            let mut sorted = classes[choice].clone();
            sorted.sort_unstable();
            (sorted, Vec::new())
        };

        let mut advance = NodeSet::new(n);
        for &u in &senders {
            advance.union_with(topo.neighbor_set(u));
        }
        advance.difference_with(&informed);
        debug_assert!(!advance.is_empty(), "a color always covers someone new");
        informed.union_with(&advance);

        entries.push(ScheduleEntry {
            slot: t,
            senders,
            channels,
        });
        t += 1;
    }

    Schedule {
        source,
        start: t_s,
        entries,
        repeats: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_dutycycle::{AlwaysAwake, ExplicitSchedule};
    use wsn_topology::{deploy, fixtures};

    #[test]
    fn fig2a_greedy_pipeline_achieves_table_ii_optimum() {
        let f = fixtures::fig2a();
        let s = run_pipeline(
            &f.topo,
            f.source,
            &AlwaysAwake,
            &mut MaxReceiversSelector,
            &PipelineConfig::default(),
        );
        s.verify(&f.topo, &AlwaysAwake).unwrap();
        // Table II: P(A) = 2 — and the greedy selector happens to choose
        // node "2" first, which is the optimal branch.
        assert_eq!(s.latency(), 2);
        assert_eq!(s.start, 1);
    }

    #[test]
    fn schedules_always_verify_on_random_instances() {
        for seed in 0..5u64 {
            let d = deploy::SyntheticDeployment::paper(80);
            let (topo, src) = d.sample(seed);
            let s = run_pipeline(
                &topo,
                src,
                &AlwaysAwake,
                &mut MaxReceiversSelector,
                &PipelineConfig::default(),
            );
            s.verify(&topo, &AlwaysAwake).unwrap();
        }
    }

    #[test]
    fn duty_cycle_jumps_over_sleeping_slots() {
        let f = fixtures::fig2a();
        // Table IV timing: source wakes at 2; nodes "2" and "3" wake at 4;
        // "2" again at 13 (r = 10).
        let wake = ExplicitSchedule::new(vec![vec![2], vec![4, 13], vec![4], vec![9], vec![9]], 20);
        let s = run_pipeline(
            &f.topo,
            f.source,
            &wake,
            &mut MaxReceiversSelector,
            &PipelineConfig::default(),
        );
        s.verify(&f.topo, &wake).unwrap();
        assert_eq!(s.start, 2);
        // Slot 2: source; slot 3: nobody awake (the N/A row); slot 4:
        // node "2" covers {4, 5} → done. P(A) = t_e = 4.
        assert_eq!(s.completion_slot(), 4);
        assert_eq!(s.entries.len(), 2);
        assert_eq!(s.entries[1].slot, 4);
    }

    #[test]
    fn single_node_topology_yields_empty_schedule() {
        let topo = wsn_topology::Topology::unit_disk(vec![wsn_geom::Point::new(0.0, 0.0)], 1.0);
        let s = run_pipeline(
            &topo,
            NodeId(0),
            &AlwaysAwake,
            &mut MaxReceiversSelector,
            &PipelineConfig::default(),
        );
        assert!(s.entries.is_empty());
        assert_eq!(s.latency(), 0);
    }

    #[test]
    #[should_panic(expected = "broadcast cannot complete")]
    fn disconnected_topology_panics() {
        let topo = wsn_topology::Topology::unit_disk(
            vec![
                wsn_geom::Point::new(0.0, 0.0),
                wsn_geom::Point::new(9.0, 0.0),
            ],
            1.0,
        );
        run_pipeline(
            &topo,
            NodeId(0),
            &AlwaysAwake,
            &mut MaxReceiversSelector,
            &PipelineConfig::default(),
        );
    }

    #[test]
    fn start_from_is_respected() {
        let f = fixtures::fig2a();
        let s = run_pipeline(
            &f.topo,
            f.source,
            &AlwaysAwake,
            &mut MaxReceiversSelector,
            &PipelineConfig { start_from: 7 },
        );
        assert_eq!(s.start, 7);
        assert_eq!(s.completion_slot(), 8);
        assert_eq!(s.latency(), 2);
    }
}
