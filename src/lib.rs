//! # mlbs — Minimum Latency Broadcasting with Conflict Awareness
//!
//! A full reproduction of *Jiang, Wu, Guo, Wu, Kline, Wang — "Minimum
//! Latency Broadcasting with Conflict Awareness in Wireless Sensor
//! Networks" (ICPP 2012)* as a Rust workspace: the pipelined conflict-aware
//! broadcast schedulers (OPT, G-OPT, E-model), every substrate they stand
//! on (unit-disk topologies, duty-cycle wake schedules, the protocol
//! interference model, conflict-aware coloring), the baselines they are
//! evaluated against, and a simulation harness regenerating every table
//! and figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace's public API under stable
//! module names so applications depend on one crate:
//!
//! ```
//! use mlbs::prelude::*;
//!
//! // Deploy 150 nodes on the paper's 50×50 sq-ft area (§V-A).
//! let (topo, source) = SyntheticDeployment::paper(150).sample(7);
//!
//! // Schedule a broadcast with the practical E-model scheme…
//! let emodel = EModel::build(&topo, &AlwaysAwake);
//! let schedule = run_pipeline(
//!     &topo, source, &AlwaysAwake,
//!     &mut EModelSelector::new(&emodel),
//!     &PipelineConfig::default(),
//! );
//! schedule.verify(&topo, &AlwaysAwake).unwrap();
//!
//! // …and compare with the exact G-OPT search and the layered baseline.
//! let gopt = solve_gopt(&topo, source, &AlwaysAwake, &SearchConfig::default());
//! let baseline = schedule_26_approx(&topo, source);
//! assert!(gopt.latency <= schedule.latency());
//! assert!(schedule.latency() <= baseline.latency());
//! ```
//!
//! ## Crate map
//!
//! | module | backing crate | contents |
//! |--------|---------------|----------|
//! | [`core`] | `mlbs-core` | schedulers, E-model, time counter searches, bounds |
//! | [`topology`] | `wsn-topology` | deployments, UDG adjacency, metrics, fixtures |
//! | [`geom`] | `wsn-geom` | hulls, quadrants, angular analysis |
//! | [`bitset`] | `wsn-bitset` | dense node sets, interned state ids |
//! | [`dutycycle`] | `wsn-dutycycle` | wake schedules, CWT |
//! | [`phy`] | `wsn-phy` | pluggable conflict models: protocol, pairwise SINR, multi-channel |
//! | [`interference`] | `wsn-interference` | conflict predicates, incremental conflict graphs, collision resolution |
//! | [`coloring`] | `wsn-coloring` | greedy scheme, Eq. (1) validity, enumeration, broadcast-state substrate |
//! | [`anytime`] | `wsn-anytime` | tabu/PARTIALCOL anytime local search, incremental repair |
//! | [`baselines`] | `wsn-baselines` | 26-/17-approximation, CDS, flooding |
//! | [`distributed`] | `wsn-distributed` | localized scheduling, distributed E-model (§VII) |
//! | [`sim`] | `wsn-sim` | experiment sweeps, statistics, CSV |
//! | [`bench`](mod@bench) | `wsn-bench` | figure/table regeneration harness |
//! | [`obs`] | `wsn-obs` | counters/histograms/spans, Chrome-trace + Prometheus export |
//! | [`serve`] | `wsn-serve` | fault-tolerant scheduler daemon: shards, deadline ladder, chaos harness |
//!
//! ## The broadcast-state substrate
//!
//! Every scheduler consumes a [`coloring::BroadcastState`] — reusable
//! scratch for the informed/uninformed sets and candidate lists, plus an
//! incremental [`interference::ConflictGraphBuilder`] that patches the
//! conflict graph by delta instead of re-running `O(k²)` pairwise tests
//! per state. The exact searches additionally canonicalize informed sets
//! through a [`bitset::SetInterner`], replacing fingerprint memo keys with
//! collision-free dense `StateId`s. Hot loops (sweep workers, the
//! searches) hold one substrate and thread it through the `*_with` entry
//! points (`solve_opt_with`, `run_pipeline_with`, `run_instance_with`, …);
//! the plain entry points remain as one-shot conveniences.
//!
//! In the duty-cycled regime the searches additionally *fold the phase
//! axis*: a [`dutycycle::WakePatternTable`] renders the wake schedule to
//! per-node bit rows, a [`bitset::WordSeqInterner`] canonicalizes
//! wake-pattern windows restricted to the uninformed neighborhood, and
//! the memo keys become `(StateId, pattern-class)` so phases that look
//! alike over the remaining horizon share one entry (see the DESIGN note
//! in `mlbs-core::search`). Superset-dominance pruning rides on top.
//! OPT certifies a result as optimal when it meets the root lower bound,
//! and otherwise re-searches a truncated beam with complete enumeration
//! before it calls the result exact. [`bench::AdaptiveBudget`] is the one
//! search configuration every regime and instance size runs.
//!
//! ## The conflict-model layer
//!
//! *Which* transmissions conflict is pluggable: every scheduler, the
//! substrate and the verifier are generic over a
//! [`phy::ConflictModel`] — the paper's protocol/UDG model (the default,
//! bit-identical to the pre-model code paths), pairwise SINR physical
//! interference with a cached gain table ([`phy::SinrModel`]), and a
//! K-channel wrapper relaxing any inner model ([`phy::MultiChannel`]).
//! Schedules carry per-sender channel assignments, validated group by
//! group through the model's reception rule
//! (`Schedule::verify_with_model`). The `*_model` entry points
//! (`solve_opt_model`, `run_pipeline_model`) thread a model through, and
//! [`phy::PhyModelSpec`] names a model independently of any topology.
//! The incremental conflict builder keys its caches on the model
//! fingerprint and maintains any model's graph by delta through its
//! witness-set factorization (see the DESIGN note in `wsn-phy`).
//!
//! ## The anytime tier
//!
//! Beyond the exact tier's reach (a few hundred nodes),
//! [`anytime::solve_anytime`] runs a tabu/PARTIALCOL local search under a
//! wall-clock or deterministic iteration budget: a greedy legalizer seeds
//! a valid schedule in `O(E)`, a `PartialSchedule` delta-evaluates
//! single-relay moves in `O(degree)` over the frozen conflict structure,
//! and every incumbent is re-simulated and re-verified under the real
//! conflict model. Spatial-hash neighbor queries ([`geom::CellGrid`])
//! keep topology and conflict-row construction near-linear, so 10k–100k
//! node networks schedule within seconds ([`sim::Algorithm::Anytime`]).
//! `e2e-bench/run.py`'s `plan-scaled` workload measures it at 30k nodes.
//!
//! The anytime tier runs one search chain. [`anytime::solve_anytime`]
//! runs it cold; [`anytime::reschedule`] runs it warm from an old
//! schedule, which is how the serving daemon answers every request from
//! a shard's incumbent.
//!
//! ## The reliability tier
//!
//! The paper's links are lossless; real links are not. A
//! [`topology::LinkQuality`] layer attaches per-link delivery
//! probabilities to the UDG (uniform, or a synthetic distance law with a
//! flap-prone subset), schedules carry per-entry *repeat counts* (an
//! entry occupies `[slot, slot + repeats)` and re-fires each slot —
//! empty repeats is the lossless encoding, bit-identical everywhere),
//! and `Schedule::verify_reliability` checks every node's delivery bound
//! reaches `1 − ε` under any conflict model.
//! [`anytime::solve_anytime_reliable`] plans repeats on top of the
//! anytime incumbent (demand per serving link, escalation where the
//! bound falls short, a trim pass dropping unneeded retransmissions),
//! [`anytime::reschedule`] repairs a running schedule after node deaths
//! — warm-starting from the surviving placements, re-covering only the
//! stranded subtree, and reporting disconnected nodes instead of
//! failing — and `wsn-sim` closes the loop: per-link lossy replay
//! ([`sim::replay_lossy_quality`]), a seeded fault harness
//! ([`sim::FaultScript`]: node death, link flap, loss bursts) whose
//! dead set feeds [`anytime::ChurnDelta`], and a TWCC-shaped online
//! estimator ([`sim::LinkEstimator`]) fusing windowed ack history with
//! delivery-delay inflation to detect drift and trigger re-planning.
//!
//! ## The serving daemon
//!
//! [`serve`] turns the library into a long-running scheduler service
//! (`wsn-serve` binary, stdin-jsonl or length-prefixed TCP framing).
//! Topologies are resident *shards* — one owner thread each, holding
//! its incumbent schedule, the schedule it serves, and a
//! [`sim::LinkEstimator`] — so solve / churn-reschedule / quality-update
//! requests skip construction entirely, and each is one
//! [`anytime::reschedule`] warm-started from the incumbent. Every request
//! carries a deadline budget mapped onto [`anytime::Budget::WallClockMs`],
//! and a degradation ladder (serial anytime → warm iterations → greedy
//! legalizer) guarantees *some* verified schedule is always
//! returned, tagged with the quality tier that produced it — the tag is
//! monotone in the deadline by construction. Bounded per-shard queues
//! shed oldest-deadline-first with explicit `overloaded` + retry-after
//! hints; worker panics are caught, the shard's state is quarantined and
//! the shard restarts cold (`serve.shard_restarts`). `observe`
//! requests close the estimator loop: acks feed the
//! [`sim::LinkEstimator`], and drift past a threshold triggers an
//! incremental [`anytime::reschedule`] of the shard's incumbent against
//! the links that moved ([`topology::LinkQuality::moved_links`]), a small
//! fraction of a cold re-solve's wall time. A seeded chaos harness
//! ([`serve::run_campaign`]) replays a [`sim::FaultScript`] plus injected
//! panics and request storms,
//! asserting every served schedule verifies; `e2e-bench/run.py`'s
//! `serve-10k` workload drives it open-loop, and the `metrics` verb
//! scrapes the [`obs`] recorder through the existing Prometheus
//! exporter.

pub use mlbs_core as core;
pub use wsn_anytime as anytime;
pub use wsn_baselines as baselines;
pub use wsn_bench as bench;
pub use wsn_bitset as bitset;
pub use wsn_coloring as coloring;
pub use wsn_distributed as distributed;
pub use wsn_dutycycle as dutycycle;
pub use wsn_geom as geom;
pub use wsn_interference as interference;
pub use wsn_obs as obs;
pub use wsn_phy as phy;
pub use wsn_serve as serve;
pub use wsn_sim as sim;
pub use wsn_topology as topology;

/// The names most applications need, importable in one line.
pub mod prelude {
    pub use mlbs_core::{
        bounds, run_pipeline, run_pipeline_model, run_pipeline_with, solve_gopt, solve_gopt_model,
        solve_gopt_with, solve_opt, solve_opt_model, solve_opt_with, BroadcastState, ColorSelector,
        EModel, EModelSelector, MaxReceiversSelector, PipelineConfig, ReliabilityReport, Schedule,
        ScheduleEntry, ScheduleError, SearchConfig, SearchOutcome,
    };
    pub use wsn_anytime::{
        reschedule, solve_anytime, solve_anytime_reliable, AnytimeConfig, AnytimeOutcome, Budget,
        ChurnDelta, ReliableOutcome, RepairOutcome, TracePoint,
    };
    pub use wsn_baselines::{
        flood_once, schedule_17_approx, schedule_26_approx, schedule_cds_layered, schedule_layered,
        schedule_layered_with, LayeredMode,
    };
    pub use wsn_bench::AdaptiveBudget;
    pub use wsn_bitset::{NodeSet, SetInterner, StateId, WordSeqInterner};
    pub use wsn_coloring::{eligible_senders, greedy_coloring, validate_coloring};
    pub use wsn_distributed::{
        distributed_emodel, localized_broadcast, localized_broadcast_with, LocalizedOutcome,
    };
    pub use wsn_dutycycle::{
        AlwaysAwake, ExplicitSchedule, Slot, WakePatternTable, WakeSchedule, WindowedRandom,
    };
    pub use wsn_geom::{Point, Quadrant, Rect};
    pub use wsn_obs::Recorder;
    pub use wsn_phy::{
        ConflictModel, MultiChannel, PhyModel, PhyModelSpec, ProtocolModel, SinrModel, SinrParams,
    };
    pub use wsn_serve::{Daemon, DaemonConfig, Request, ShardSpec};
    pub use wsn_sim::{
        mean_coverage_quality, replay_faulty, replay_lossy, replay_lossy_quality, run_instance,
        run_instance_with, simulate_acks, Algorithm, FaultParams, FaultScript, LinkEstimator,
        Regime, Summary, Sweep,
    };
    pub use wsn_topology::{
        deploy::SyntheticDeployment, fixtures, metrics, LinkQuality, LinkQualityParams, NodeId,
        Topology,
    };
}

#[cfg(test)]
mod facade_consistency {
    //! The ROADMAP-suggested drift check: the crate-map table above and the
    //! facade re-exports are the single source of truth for the public
    //! surface, so both are grepped against the workspace member list —
    //! adding a crate without updating the facade fails CI here.

    /// Workspace member crate names, read from the manifest's
    /// `[workspace.dependencies]` path entries.
    fn workspace_members() -> Vec<String> {
        let manifest = include_str!("../Cargo.toml");
        manifest
            .lines()
            .filter_map(|line| {
                let (name, rest) = line.split_once('=')?;
                rest.contains("path = \"crates/")
                    .then(|| name.trim().to_string())
            })
            .collect()
    }

    #[test]
    fn crate_map_table_covers_every_workspace_member() {
        let doc = include_str!("lib.rs");
        let members = workspace_members();
        assert!(
            members.len() >= 12,
            "expected the full crate list, got {members:?}"
        );
        let table_rows: Vec<&str> = doc
            .lines()
            .filter(|l| l.trim_start().starts_with("//! | ["))
            .collect();
        for m in &members {
            assert!(
                table_rows.iter().any(|row| row.contains(&format!("`{m}`"))),
                "crate-map table in src/lib.rs is missing workspace member `{m}`"
            );
        }
        assert_eq!(
            table_rows.len(),
            members.len(),
            "crate-map table lists a crate that is not a workspace member"
        );
    }

    #[test]
    fn every_workspace_member_is_re_exported() {
        let doc = include_str!("lib.rs");
        for m in workspace_members() {
            let ident = m.replace('-', "_");
            assert!(
                doc.contains(&format!("pub use {ident}")),
                "facade is missing the `pub use {ident}` re-export"
            );
        }
    }
}
