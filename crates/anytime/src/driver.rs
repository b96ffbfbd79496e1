//! The anytime driver: seed greedily, then run PARTIALCOL compression
//! passes against the incumbent until the budget runs out, keeping the
//! best verified schedule and an improving-bound trace.
//!
//! After three failed passes in a row the next pass is a diversification
//! kick: a randomized greedy restart. A kick and an acceptance both reset
//! the stall counter, so every pass is either one compression pass or one
//! restart.
//!
//! The incumbent's [`PartialSchedule`] is frozen once and kept while the
//! incumbent stands; each compression pass rewinds it
//! ([`PartialSchedule::rewind`]) instead of freezing it again. The freeze
//! reads the incumbent's receive slots from the legalizer run that built
//! it, kept beside the incumbent, so the search never replays a schedule.
//!
//! There is one search chain ([`run_chain`]). [`solve_anytime`] runs it
//! cold; the repair tier ([`reschedule`](crate::reschedule)) warm-starts
//! it from an old schedule under a dead-node mask.

use mlbs_core::Schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wsn_bitset::NodeSet;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_interference::ConflictGraphBuilder;
use wsn_phy::ConflictModel;
use wsn_topology::{metrics, NodeId, Topology};

use crate::legalize::{Hints, Legalizer};
use crate::partial::{PartialSchedule, StepOutcome};

/// When the anytime search stops.
///
/// Wall-clock budgets are what the 10k–100k benchmarks use; iteration
/// budgets make runs bit-reproducible (time never influences a decision),
/// which is what the sweep harness needs for its thread-count-independence
/// guarantee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// Stop after this many milliseconds of wall-clock time.
    WallClockMs(u64),
    /// Stop after this many deterministic work units: local-search moves,
    /// plus a setup charge of `relays / 8 + 1` per compression pass
    /// and `nodes / 64 + 1` per restart. The pass charge dates from when
    /// every pass froze the incumbent again. A freeze now happens once per
    /// incumbent and later passes rewind it, so the charge no longer
    /// measures work done; it stays as the budget contract, which keeps
    /// iteration-budget results reproducible bit for bit.
    Iterations(u64),
}

/// Anytime-search parameters.
#[derive(Clone, Debug)]
pub struct AnytimeConfig {
    /// Stop condition.
    pub budget: Budget,
    /// RNG seed; two runs with the same seed and an iteration budget are
    /// bit-identical.
    pub seed: u64,
    /// Slot from which the source may first transmit.
    pub start_from: Slot,
}

/// Base tabu tenure (moves); the compression pass adds dynamic terms.
const TABU_TENURE: u64 = 7;
/// Local-search moves a single pass may spend before giving up.
const PASS_MOVE_CAP: u64 = 4_000;
/// Failed passes before a randomized restart.
const STALLS_BEFORE_KICK: u32 = 3;
/// Priority noise for randomized restart legalizations.
const RESTART_JITTER: u32 = 3;

impl Default for AnytimeConfig {
    fn default() -> Self {
        AnytimeConfig {
            budget: Budget::Iterations(50_000),
            seed: 0x1CC5_2012,
            start_from: 1,
        }
    }
}

/// One point of the improving-bound trace: the incumbent latency as of
/// `elapsed_ms` since the search started. Strictly improving by
/// construction (one point per accepted incumbent).
///
/// Each point carries both the monotonic wall-clock offset *and* the
/// deterministic move count at acceptance, so time-to-quality curves are
/// plottable straight from sweep exports (moves for reproducible x-axes
/// under iteration budgets, milliseconds for real-time curves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracePoint {
    /// Milliseconds since `solve_anytime` was entered (monotonic clock).
    pub elapsed_ms: u64,
    /// Deterministic work units spent when this incumbent was accepted.
    pub moves: u64,
    /// Incumbent latency at that moment.
    pub latency: Slot,
}

/// Result of an anytime search.
#[derive(Clone, Debug)]
pub struct AnytimeOutcome {
    /// Best schedule found (always verifies under the model it was
    /// searched with).
    pub schedule: Schedule,
    /// Its latency.
    pub latency: Slot,
    /// Improving-bound trace, one point per incumbent (monotone
    /// non-increasing latency, starting with the greedy seed).
    pub trace: Vec<TracePoint>,
    /// Local-search moves spent.
    pub moves: u64,
    /// Passes attempted: compression passes plus restarts.
    pub passes: u64,
    /// Diversification kicks (randomized restarts).
    pub restarts: u64,
    /// `true` when the incumbent hit the BFS-depth lower bound, proving
    /// optimality (the budget is then left unspent).
    pub proved_optimal: bool,
}

/// Budget bookkeeping shared by the driver and its passes.
struct Clock {
    budget: Budget,
    started: Instant,
    moves: u64,
}

impl Clock {
    fn exhausted(&self) -> bool {
        match self.budget {
            Budget::WallClockMs(ms) => self.started.elapsed().as_millis() as u64 >= ms,
            Budget::Iterations(k) => self.moves >= k,
        }
    }

    /// Deadline check inside a pass's move loop. Wall-clock budgets poll
    /// every 16 moves — often enough that a pass cannot bill past the
    /// deadline by more than a handful of cheap moves (the 100k scale used
    /// to overshoot a 10 s budget by 25 ms on the old 64-move cadence).
    /// Iteration budgets keep the historical 64-move cadence: their
    /// exhaustion test is exact arithmetic, and changing the cadence would
    /// change which move ends a pass — breaking bit-reproducibility
    /// against recorded baselines.
    fn mid_pass_exhausted(&self, pass_moves: u64) -> bool {
        let cadence = match self.budget {
            Budget::WallClockMs(_) => 16,
            Budget::Iterations(_) => 64,
        };
        pass_moves.is_multiple_of(cadence) && self.exhausted()
    }

    fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// Per-chain wiring for [`run_chain`]: where the chain starts and which
/// nodes it schedules.
pub(crate) struct ChainCtx<'a> {
    /// Warm-start schedule fed to the first legalization as hints.
    pub(crate) warm: Option<&'a Schedule>,
    /// Dead-node mask (churn repair): masked nodes never transmit, are
    /// owed no coverage, and don't witness conflicts. The alive set must
    /// stay connected through the source.
    pub(crate) dead: Option<&'a NodeSet>,
}

impl ChainCtx<'_> {
    /// A cold chain over every node.
    pub(crate) fn standalone() -> ChainCtx<'static> {
        ChainCtx {
            warm: None,
            dead: None,
        }
    }
}

/// Slot-keyed legalizer hints reproducing `schedule`'s sender placement.
fn hints_of(schedule: &Schedule) -> Hints {
    let mut hints = Hints::new();
    for entry in &schedule.entries {
        hints.insert(entry.slot, entry.senders.clone());
    }
    hints
}

/// Anytime minimum-latency broadcast scheduling: greedy seed, then
/// tabu/PARTIALCOL local search on the schedule-length objective until the
/// budget expires. Returns the best schedule found so far plus the
/// improving-bound trace — interrupt-anytime semantics on networks far
/// beyond the exact tier's reach (10k–100k nodes).
///
/// Generic over the conflict model and wake schedule; every incumbent is
/// re-verified with [`Schedule::verify_with_model`] before acceptance, so
/// the result is valid under exactly the semantics the exact tier uses.
///
/// # Panics
///
/// Panics when the topology is disconnected.
pub fn solve_anytime<S: WakeSchedule, M: ConflictModel>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    model: &M,
    config: &AnytimeConfig,
) -> AnytimeOutcome {
    run_chain(topo, source, wake, model, config, ChainCtx::standalone())
}

/// One search chain: the body behind [`solve_anytime`] and the repair
/// tier. With `ctx.warm == None` and `ctx.dead == None` it is the cold
/// serial driver.
pub(crate) fn run_chain<S: WakeSchedule, M: ConflictModel>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    model: &M,
    config: &AnytimeConfig,
    ctx: ChainCtx<'_>,
) -> AnytimeOutcome {
    let hops = match ctx.dead {
        None => metrics::bfs_hops(topo, source),
        Some(dead) => metrics::bfs_hops_masked(topo, source, dead),
    };
    assert!(
        hops.iter()
            .enumerate()
            .all(|(u, &h)| h != metrics::UNREACHABLE
                || ctx.dead.is_some_and(|dead| dead.contains(u))),
        "broadcast cannot complete: disconnected topology"
    );
    let depth = Slot::from(
        hops.iter()
            .filter(|&&h| h != metrics::UNREACHABLE)
            .copied()
            .max()
            .unwrap_or(0),
    );

    // One span per chain; chains on different threads get their own tids,
    // so the Chrome export shows them side by side.
    let mut chain_span = wsn_obs::span("anytime.chain");
    let mut clock = Clock {
        budget: config.budget,
        started: Instant::now(),
        moves: 0,
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut legalizer = Legalizer::new(topo.len());
    let mut builder = ConflictGraphBuilder::new();
    let no_hints = Hints::new();

    let warm_hints = ctx.warm.map(hints_of);
    let seed_hints = warm_hints.as_ref().unwrap_or(&no_hints);
    let mut best = legalizer.legalize(
        topo,
        source,
        wake,
        model,
        seed_hints,
        config.start_from,
        0,
        ctx.dead,
        &mut rng,
    );
    debug_assert!(best
        .verify_covering_with_model(topo, wake, model, ctx.dead)
        .is_ok());
    // The incumbent's receive slots, straight from the legalizer: what a
    // freeze reads, without a replay.
    let mut best_receive = Vec::new();
    legalizer.take_receive_slots(&mut best_receive);
    let mut trace = vec![TracePoint {
        elapsed_ms: clock.elapsed_ms(),
        moves: clock.moves,
        latency: best.latency(),
    }];
    wsn_obs::event_value("anytime.incumbent", best.latency() as i64);
    let mut passes = 0u64;
    let mut restarts = 0u64;
    let mut stalls = 0u32;
    // The frozen structure of `best`, kept while `best` stays the
    // incumbent and rewound at the start of each compression pass.
    let mut frozen: Option<PartialSchedule> = None;
    let mut freezes = 0u64;
    let mut freeze_reuses = 0u64;
    // Wall-clock budgets only: smoothed per-pass cost, so the loop can
    // decline to start a pass the remaining budget clearly cannot fit
    // (pass setup — frozen-structure builds, legalizations — is billed in
    // deterministic moves but paid in real time the move cadence cannot
    // see).
    let mut pass_cost_ewma = 0.0f64;

    while best.latency() > depth && !clock.exhausted() {
        if let Budget::WallClockMs(ms) = config.budget {
            let remaining = ms.saturating_sub(clock.elapsed_ms()) as f64;
            if pass_cost_ewma > 0.0 && remaining < pass_cost_ewma * 0.5 {
                break;
            }
        }
        let pass_started_ms = clock.elapsed_ms();

        passes += 1;
        let _pass_span = wsn_obs::span("anytime.pass");
        let kick = stalls >= STALLS_BEFORE_KICK;
        let candidate = if kick {
            // Randomized greedy restart (fresh construction with jittered
            // priorities).
            restarts += 1;
            wsn_obs::event("anytime.restart");
            clock.moves += topo.len() as u64 / 64 + 1;
            Some(legalizer.legalize(
                topo,
                source,
                wake,
                model,
                &no_hints,
                config.start_from,
                RESTART_JITTER,
                ctx.dead,
                &mut rng,
            ))
        } else {
            // Compression pass (PARTIALCOL): search the frozen conflict
            // structure for an assignment one slot shorter, which the
            // legalizer then re-simulates.
            let freeze = |builder: &mut ConflictGraphBuilder| {
                PartialSchedule::freeze(&best, &best_receive, topo, model, builder, ctx.dead)
            };
            let partial = match frozen.as_mut() {
                Some(partial) => {
                    partial.rewind();
                    freeze_reuses += 1;
                    debug_assert!(
                        *partial == freeze(&mut builder),
                        "rewound PartialSchedule differs from a fresh freeze of the incumbent"
                    );
                    partial
                }
                None => {
                    freezes += 1;
                    debug_assert!(
                        best_receive == best.receive_slots(topo, model, ctx.dead),
                        "the legalizer's receive slots differ from the incumbent's replay"
                    );
                    frozen.insert(freeze(&mut builder))
                }
            };
            // The setup charge is the budget contract, billed whether the
            // structure was frozen or rewound.
            clock.moves += partial.relays().len() as u64 / 8 + 1;
            let mut solved = false;
            if partial.begin_compress() {
                let mut pass_moves = 0u64;
                loop {
                    let step = partial.compress_step(wake, TABU_TENURE, &mut rng);
                    clock.moves += 1;
                    pass_moves += 1;
                    match step {
                        StepOutcome::Done => {
                            solved = true;
                            break;
                        }
                        StepOutcome::Stuck => break,
                        StepOutcome::Progress => {}
                    }
                    if pass_moves >= PASS_MOVE_CAP || clock.mid_pass_exhausted(pass_moves) {
                        break;
                    }
                }
            }
            solved.then(|| {
                let hints = partial.hints();
                legalizer.legalize(
                    topo,
                    source,
                    wake,
                    model,
                    &hints,
                    config.start_from,
                    0,
                    ctx.dead,
                    &mut rng,
                )
            })
        };

        match candidate {
            Some(cand)
                if cand.latency() < best.latency()
                    && cand
                        .verify_covering_with_model(topo, wake, model, ctx.dead)
                        .is_ok() =>
            {
                best = cand;
                legalizer.take_receive_slots(&mut best_receive);
                frozen = None;
                trace.push(TracePoint {
                    elapsed_ms: clock.elapsed_ms(),
                    moves: clock.moves,
                    latency: best.latency(),
                });
                wsn_obs::event_value("anytime.incumbent", best.latency() as i64);
                stalls = 0;
            }
            // A kick resets the stall counter either way.
            _ if kick => stalls = 0,
            _ => stalls += 1,
        }

        if matches!(config.budget, Budget::WallClockMs(_)) {
            let took = (clock.elapsed_ms() - pass_started_ms) as f64;
            pass_cost_ewma = if pass_cost_ewma == 0.0 {
                took
            } else {
                0.7 * pass_cost_ewma + 0.3 * took
            };
        }
    }

    let proved_optimal = best.latency() <= depth;
    let latency = best.latency();
    if wsn_obs::enabled() {
        chain_span.set_value(latency as i64);
        drop(chain_span);
        wsn_obs::counter_add("anytime.solves", 1);
        wsn_obs::counter_add("anytime.moves", clock.moves);
        wsn_obs::counter_add("anytime.passes", passes);
        wsn_obs::counter_add("anytime.restarts", restarts);
        wsn_obs::counter_add("anytime.freezes", freezes);
        wsn_obs::counter_add("anytime.freeze_reuses", freeze_reuses);
        if proved_optimal {
            wsn_obs::counter_add("anytime.proved_optimal", 1);
        }
        wsn_obs::observe_us(
            "anytime.wall_us",
            clock.started.elapsed().as_micros() as u64,
        );
        wsn_obs::observe_us("anytime.latency_slots", latency as u64);
    }
    AnytimeOutcome {
        schedule: best,
        latency,
        trace,
        moves: clock.moves,
        passes,
        restarts,
        proved_optimal,
    }
}
