//! The anytime driver: seed greedily, then run PARTIALCOL compression
//! passes against the incumbent until the budget runs out, keeping the
//! best verified schedule and an improving-bound trace.
//!
//! After three failed passes in a row the next pass is a diversification
//! kick: a randomized greedy restart. A kick and an acceptance both reset
//! the stall counter, so every pass is either one compression pass or one
//! restart.
//!
//! Restarts are numbered. Restart `k` draws its priority noise from a
//! stream of its own, seeded from `(config.seed, k)`, and reads neither
//! the incumbent nor any hints, so it depends only on the instance, the
//! seed and `k`. Restart 0 draws no noise: it is the cold greedy
//! legalization. A cold chain's seed is restart 0 and its kicks are
//! restarts 1, 2, …; a warm chain (a repair with placements to reuse)
//! seeds from its hints and opens with restart 0 as its first pass, so a
//! repair never ends worse than the cold legalization under its mask.
//! The chain's own RNG drives only the compression passes.
//!
//! Under an iteration budget on a host with a spare core, the chain
//! starts one scoped helper thread at its first kick, with two one-slot
//! channels: restart orders go out to it, built restarts come back. While
//! the chain legalizes restart `k` and runs the passes up to its next
//! kick, the helper legalizes restart `k + 1` with a legalizer of its own;
//! the chain builds restart `k + 2` itself, beside the helper's `k + 3`,
//! and so on. The helper looks ahead by at most one restart. When the
//! chain ends, also by a panic, a drop guard raises a stop flag that ends
//! a restart the chain will not take, and the chain's channel ends drop,
//! which ends the helper's loop before the scope joins it. The chain takes
//! restarts in order and bills each one the same, so its outcome does not
//! depend on whether the helper ran. Wall-clock chains stay on one thread.
//!
//! The incumbent's [`PartialSchedule`] is frozen once and kept while the
//! incumbent stands; each compression pass rewinds it
//! ([`PartialSchedule::rewind`]) instead of freezing it again. The freeze
//! reads the incumbent's receive slots from the legalizer run that built
//! it, kept beside the incumbent. Only a restart the helper built replays
//! its schedule for them, once, when it becomes the incumbent.
//! Each freeze builds its conflict rows with a fresh builder.
//!
//! Each chain runs one BFS from the source over the alive nodes, or takes
//! the one the repair tier already ran. It gives the depth lower bound
//! and, on synchronous chains (`wake.period() == 1`), the reach every
//! legalization of the chain ranks its frontier by first, so the relays on
//! the paths to the farthest nodes go first. The chain computes that rank
//! once, in one reverse sweep of the BFS order, and shares it with its
//! lookahead helper by borrow. Duty-cycled chains rank by uninformed-degree
//! alone.
//!
//! There is one search chain ([`run_chain`]). [`solve_anytime`] runs it
//! cold; the repair tier ([`reschedule`](crate::reschedule)) warm-starts
//! it from an old schedule under a dead-node mask.

use mlbs_core::Schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::OnceLock;
use std::time::Instant;
use wsn_bitset::NodeSet;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_interference::ConflictGraphBuilder;
use wsn_phy::ConflictModel;
use wsn_topology::{NodeId, Topology};

use crate::legalize::{Hints, Instance, Legalizer, Levels};
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
    ///
    /// Each restart draws from its own RNG stream, seeded from the config
    /// seed and the restart's index, and is billed when the chain takes
    /// it. On a host with a spare core a helper thread legalizes the next
    /// restart ahead of the chain and hands it back over a channel; the
    /// result is the same bit for bit with or without it, whatever the
    /// thread count.
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
/// Smallest network whose iteration-budget chains legalize restarts on a
/// helper thread: below it a restart costs less than the hand-off. Mean
/// chain time with the helper on / off, default config, two runs of 18–24
/// chains over six paper deployments per size, release build on a 2-core
/// x86-64 host:
/// 100 nodes 31.0 / 24.2 ms, 130 nodes 25.1 / 23.4, 145 nodes 15.2 / 14.7,
/// 150 nodes 29.7 / 34.2, 160 nodes 24.0 / 25.0, 200 nodes 16.6 / 19.2,
/// 300 nodes 34.8 / 47.0, 400 nodes 39.0 / 57.6.
const LOOKAHEAD_MIN_NODES: usize = 150;

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
    /// BFS levels from the source over the nodes `dead` leaves alive, when
    /// the caller already ran that search; the chain runs it otherwise.
    /// The search may skip fewer nodes than `dead` as long as the rest are
    /// the alive nodes it cut off: their levels are the same.
    pub(crate) levels: Option<Levels>,
    /// Whether an iteration-budget chain may legalize restarts ahead on a
    /// helper thread ([`lookahead_pays`]). It changes no result.
    pub(crate) lookahead: bool,
}

impl ChainCtx<'_> {
    /// A cold chain over every node of an `n`-node network.
    pub(crate) fn standalone(n: usize) -> ChainCtx<'static> {
        ChainCtx {
            warm: None,
            dead: None,
            levels: None,
            lookahead: lookahead_pays(n),
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
    run_chain(
        topo,
        source,
        wake,
        model,
        config,
        ChainCtx::standalone(topo.len()),
    )
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
    let levels = ctx
        .levels
        .unwrap_or_else(|| Levels::new(topo, source, ctx.dead));
    assert!(
        levels.reached() + ctx.dead.map_or(0, NodeSet::len) == topo.len(),
        "broadcast cannot complete: disconnected topology"
    );
    let depth = Slot::from(levels.depth());
    // Synchronous chains rank the frontier by reach first. Duty-cycled
    // ones rank by uninformed-degree alone: there a relay's hop distance
    // says little about when its subtree wakes, and the hop rank
    // lengthened duty plans.
    let reach = (wake.period() == 1).then(|| levels.reach(topo));
    drop(levels);

    // One span per chain; chains on different threads get their own tids,
    // so the Chrome export shows them side by side.
    let mut chain_span = wsn_obs::span("anytime.chain");
    let mut clock = Clock {
        budget: config.budget,
        started: Instant::now(),
        moves: 0,
    };
    // The chain's own stream drives only the compression passes; each
    // restart draws from a stream of its own (`RestartInput::build`).
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut legalizer = Legalizer::new(topo.len());
    let input = RestartInput {
        inst: Instance {
            topo,
            source,
            wake,
            model,
            start_from: config.start_from,
            dead: ctx.dead,
            reach: reach.as_deref(),
        },
        seed: config.seed,
    };

    let warm_hints = ctx.warm.map(hints_of).filter(|hints| !hints.is_empty());
    let mut best = match &warm_hints {
        Some(hints) => legalizer.legalize(&input.inst, hints, 0, &mut rng),
        None => input.build(&mut legalizer, 0, None).expect("no stop flag"),
    };
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
    // A cold chain's seed is restart 0. A warm chain opens with it as its
    // first pass, so a repair never ends worse than the cold legalization
    // under its mask.
    let mut next_restart = if warm_hints.is_some() { 0 } else { 1 };
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
    // The lookahead helper (iteration budgets only): whether it is building
    // the next restart, and the flag that ends a restart the chain will not
    // take.
    let mut ahead = false;
    let mut restarts_ahead = 0u64;
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Raises `stop` when the chain ends, also by a panic. The chain's
        // channel ends, declared after it, drop first: with them gone the
        // helper's loop ends, before the scope joins it.
        let _stop = RaiseOnDrop(&stop);
        let mut helper: Option<HelperEnds> = None;
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
            let kick = next_restart == 0 || stalls >= STALLS_BEFORE_KICK;
            let candidate = if kick {
                // Restart `k`: a fresh greedy construction, with jittered
                // priorities from its own stream unless `k == 0`.
                let k = next_restart;
                next_restart += 1;
                restarts += 1;
                wsn_obs::event("anytime.restart");
                clock.moves += topo.len() as u64 / 64 + 1;
                if helper.is_none()
                    && k > 0
                    && ctx.lookahead
                    && matches!(config.budget, Budget::Iterations(_))
                {
                    let (order, orders) = sync_channel(1);
                    let (hand_back, built) = sync_channel(1);
                    let (input, stop) = (&input, &stop);
                    // It builds each restart on order, with a legalizer of
                    // its own, until the chain's ends drop. It opens no
                    // spans.
                    scope.spawn(move || {
                        let mut legalizer = Legalizer::new(topo.len());
                        for k in orders {
                            let Some(schedule) = input.build(&mut legalizer, k, Some(stop)) else {
                                return;
                            };
                            if hand_back.send((k, schedule)).is_err() {
                                return;
                            }
                        }
                    });
                    helper = Some((order, built));
                }
                let built = if ahead {
                    // The helper built it beside the last restart.
                    ahead = false;
                    restarts_ahead += 1;
                    let (_, built) = helper.as_ref().expect("a restart is on order");
                    let (built, schedule) = built.recv().expect("the lookahead helper died");
                    assert_eq!(built, k, "the helper built the wrong restart");
                    (schedule, Receive::Replay)
                } else {
                    // The helper, when running, builds the next restart
                    // while this thread builds this one.
                    if let Some((order, _)) = &helper {
                        order.send(k + 1).expect("the lookahead helper died");
                        ahead = true;
                    }
                    let schedule = input.build(&mut legalizer, k, None).expect("no stop flag");
                    (schedule, Receive::Legalizer)
                };
                #[cfg(test)]
                tests::log_restart(k, &built.0, matches!(built.1, Receive::Replay));
                Some(built)
            } else {
                // Compression pass (PARTIALCOL): search the frozen conflict
                // structure for an assignment one slot shorter, which the
                // legalizer then re-simulates. Each freeze gets a fresh
                // builder, so no builder scratch outlives its incumbent.
                let freeze = || {
                    PartialSchedule::freeze(
                        &best,
                        &best_receive,
                        topo,
                        model,
                        &mut ConflictGraphBuilder::new(),
                        ctx.dead,
                    )
                };
                let partial = match frozen.as_mut() {
                    Some(partial) => {
                        partial.rewind();
                        freeze_reuses += 1;
                        debug_assert!(
                            *partial == freeze(),
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
                        frozen.insert(freeze())
                    }
                };
                // The setup charge is the budget contract, billed whether
                // the structure was frozen or rewound.
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
                    let schedule = legalizer.legalize(&input.inst, &partial.hints(), 0, &mut rng);
                    (schedule, Receive::Legalizer)
                })
            };

            match candidate {
                Some((cand, receive))
                    if cand.latency() < best.latency()
                        && cand
                            .verify_covering_with_model(topo, wake, model, ctx.dead)
                            .is_ok() =>
                {
                    best = cand;
                    match receive {
                        Receive::Legalizer => legalizer.take_receive_slots(&mut best_receive),
                        Receive::Replay => {
                            best_receive = best.receive_slots(topo, model, ctx.dead);
                        }
                    }
                    frozen = None;
                    trace.push(TracePoint {
                        elapsed_ms: clock.elapsed_ms(),
                        moves: clock.moves,
                        latency: best.latency(),
                    });
                    wsn_obs::event_value("anytime.incumbent", best.latency() as i64);
                    stalls = 0;
                }
                _ => {
                    if kick {
                        // A kick resets the stall counter either way.
                        stalls = 0;
                    } else {
                        stalls += 1;
                    }
                }
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
    });

    let proved_optimal = best.latency() <= depth;
    let latency = best.latency();
    if wsn_obs::enabled() {
        chain_span.set_value(latency as i64);
        drop(chain_span);
        wsn_obs::counter_add("anytime.solves", 1);
        wsn_obs::counter_add("anytime.moves", clock.moves);
        wsn_obs::counter_add("anytime.passes", passes);
        wsn_obs::counter_add("anytime.restarts", restarts);
        wsn_obs::counter_add("anytime.restarts_ahead", restarts_ahead);
        wsn_obs::counter_add("anytime.lookahead_wasted", u64::from(ahead));
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

/// Where a candidate's receive slots come from.
enum Receive {
    /// The chain's legalizer, from its last run.
    Legalizer,
    /// A replay of the schedule: the helper built it, and its slots stay
    /// in the helper's legalizer. Only a restart that wins pays for it.
    Replay,
}

/// Seed of restart `k`'s RNG stream: output `k + 1` of a SplitMix64
/// generator started at `seed ^ RESTART_STREAMS`. Restart `k` therefore
/// depends only on the instance, the seed and `k`.
fn restart_seed(seed: u64, k: u64) -> u64 {
    const RESTART_STREAMS: u64 = 0x5245_5354_4152_5453; // "RESTARTS"
    const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15; // SplitMix64's increment
    let mut z = (seed ^ RESTART_STREAMS).wrapping_add(k.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a restart reads: the chain's legalization input and its seed.
/// The chain and its lookahead helper share it.
struct RestartInput<'a, S, M> {
    inst: Instance<'a, S, M>,
    seed: u64,
}

impl<S: WakeSchedule, M: ConflictModel> RestartInput<'_, S, M> {
    /// Restart `k`: a greedy legalization without hints, with priority
    /// noise drawn from the stream [`restart_seed`] gives `k`. Restart 0
    /// draws no noise: it is the cold legalization under the mask.
    /// `None` when `stop` is raised first.
    fn build(
        &self,
        legalizer: &mut Legalizer,
        k: u64,
        stop: Option<&AtomicBool>,
    ) -> Option<Schedule> {
        let jitter = if k == 0 { 0 } else { RESTART_JITTER };
        let mut rng = StdRng::seed_from_u64(restart_seed(self.seed, k));
        legalizer.legalize_until(&self.inst, &Hints::new(), jitter, &mut rng, stop)
    }
}

/// Whether a chain on `n` nodes should run restarts on a helper thread:
/// the host has a spare core, and a restart costs far more than the
/// hand-off.
pub(crate) fn lookahead_pays(n: usize) -> bool {
    static SPARE_CORE: OnceLock<bool> = OnceLock::new();
    n >= LOOKAHEAD_MIN_NODES
        && *SPARE_CORE
            .get_or_init(|| std::thread::available_parallelism().is_ok_and(|p| p.get() > 1))
}

/// The chain's ends of the channels to its lookahead helper: restart
/// orders go out, built restarts come back.
type HelperEnds = (SyncSender<u64>, Receiver<(u64, Schedule)>);

/// Raises a flag when dropped, also while unwinding.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        // The flag publishes no data (restarts go over the channels), so a
        // relaxed store suffices.
        self.0.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use wsn_dutycycle::{AlwaysAwake, WindowedRandom};
    use wsn_phy::ProtocolModel;
    use wsn_topology::deploy::SyntheticDeployment;
    use wsn_topology::metrics;

    /// A restart a chain took: its index, its schedule, and whether the
    /// helper built it.
    type Taken = (u64, Schedule, bool);

    thread_local! {
        /// Every restart the chains on this thread take, while a test
        /// collects them.
        static TAKEN: RefCell<Option<Vec<Taken>>> = const { RefCell::new(None) };
    }

    pub(crate) fn log_restart(k: u64, schedule: &Schedule, ahead: bool) {
        TAKEN.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                log.push((k, schedule.clone(), ahead));
            }
        });
    }

    /// Runs `f`, returning its result and the restarts its chains took.
    fn collect_restarts<T>(f: impl FnOnce() -> T) -> (T, Vec<Taken>) {
        TAKEN.with(|log| *log.borrow_mut() = Some(Vec::new()));
        let out = f();
        (
            out,
            TAKEN.with(|log| log.borrow_mut().take().unwrap_or_default()),
        )
    }

    pub(crate) fn same_search(a: &AnytimeOutcome, b: &AnytimeOutcome) {
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.restarts, b.restarts);
        assert_eq!(a.schedule.entries, b.schedule.entries);
    }

    /// `dead` plus every alive node it cuts off from `src`, as the repair
    /// tier masks them.
    pub(crate) fn closed_mask(
        topo: &Topology,
        src: NodeId,
        dead: impl Iterator<Item = usize>,
    ) -> NodeSet {
        let mut mask = NodeSet::new(topo.len());
        for u in dead.filter(|&u| u != src.idx()) {
            mask.insert(u);
        }
        let hops = metrics::bfs_hops_masked(topo, src, &mask);
        for (u, &h) in hops.iter().enumerate() {
            if h == metrics::UNREACHABLE {
                mask.insert(u);
            }
        }
        mask
    }

    /// Runs one chain with the helper off and on and checks that both
    /// give the same search, take the same restarts in index order, and
    /// that each restart equals the one [`RestartInput::build`] makes
    /// alone, from a reach computed afresh when every node wakes in every
    /// slot and without one otherwise. Returns the number of restarts the
    /// helper built.
    fn check_lookahead<S: WakeSchedule>(
        topo: &Topology,
        src: NodeId,
        wake: &S,
        config: &AnytimeConfig,
        warm: Option<&Schedule>,
        dead: Option<&NodeSet>,
    ) -> usize {
        let chain = |lookahead| {
            collect_restarts(|| {
                let ctx = ChainCtx {
                    warm,
                    dead,
                    levels: None,
                    lookahead,
                };
                run_chain(topo, src, wake, &ProtocolModel, config, ctx)
            })
        };
        let (serial, serial_restarts) = chain(false);
        let (helped, helped_restarts) = chain(true);
        same_search(&serial, &helped);
        let lat = |out: &AnytimeOutcome| out.trace.iter().map(|p| p.latency).collect::<Vec<_>>();
        assert_eq!(lat(&serial), lat(&helped));
        assert_eq!(serial.restarts as usize, serial_restarts.len());
        assert!(serial_restarts.iter().all(|&(_, _, ahead)| !ahead));

        let warm_seeded = warm.is_some_and(|old| !old.entries.is_empty());
        let first = u64::from(!warm_seeded);
        let reach = (wake.period() == 1).then(|| Levels::new(topo, src, dead).reach(topo));
        let input = RestartInput {
            inst: Instance {
                topo,
                source: src,
                wake,
                model: &ProtocolModel,
                start_from: config.start_from,
                dead,
                reach: reach.as_deref(),
            },
            seed: config.seed,
        };
        let mut alone = Legalizer::new(topo.len());
        for (i, ((k, a, _), (k2, b, _))) in serial_restarts.iter().zip(&helped_restarts).enumerate()
        {
            assert_eq!((*k, *k2), (first + i as u64, first + i as u64));
            assert_eq!(a.entries, b.entries, "restart {k}");
            let built = input.build(&mut alone, *k, None).unwrap();
            assert_eq!(built.entries, a.entries, "restart {k} alone");
        }
        assert_eq!(serial_restarts.len(), helped_restarts.len());
        helped_restarts
            .iter()
            .filter(|&&(_, _, ahead)| ahead)
            .count()
    }

    #[test]
    fn restart_streams_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..1_000).map(|k| restart_seed(0x1CC5_2012, k)).collect();
        assert_eq!(seeds.len(), 1_000);
        assert_ne!(restart_seed(1, 5), restart_seed(2, 5));
    }

    /// The 10k-node case: a cold chain and a warm repair under a dead
    /// mask, each with enough budget for several restarts.
    #[test]
    fn lookahead_changes_no_result_at_10k_nodes() {
        let (topo, src) = SyntheticDeployment::scaled(10_000).sample(3);
        let config = AnytimeConfig {
            budget: Budget::Iterations(60_000),
            ..AnytimeConfig::default()
        };
        let ahead = check_lookahead(&topo, src, &AlwaysAwake, &config, None, None);
        assert!(ahead > 0, "the helper must build restarts");

        let old = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &config);
        let dead = closed_mask(&topo, src, (5..topo.len()).step_by(97));
        let ahead = check_lookahead(
            &topo,
            src,
            &AlwaysAwake,
            &config,
            Some(&old.schedule),
            Some(&dead),
        );
        assert!(ahead > 0, "the helper must build restarts");
    }

    /// Where [`Tripwire`] panics.
    #[derive(Clone, Copy)]
    enum Trip {
        /// On any thread but its builder's.
        Helper,
        /// On its builder's thread, once another thread has used it.
        ChainAfterHelper,
    }

    /// The protocol model under another fingerprint, so the legalizer calls
    /// `resolve_receptions` every slot, and panics there per its [`Trip`].
    #[derive(Clone)]
    struct Tripwire<'a> {
        builder: std::thread::ThreadId,
        trip: Trip,
        helper_ran: &'a AtomicBool,
    }

    impl ConflictModel for Tripwire<'_> {
        fn fingerprint(&self) -> u64 {
            !ProtocolModel.fingerprint()
        }
        fn locality(&self) -> wsn_phy::WitnessLocality {
            ProtocolModel.locality()
        }
        fn conflicts(&self, topo: &Topology, u: NodeId, v: NodeId, unf: &NodeSet) -> bool {
            ProtocolModel.conflicts(topo, u, v, unf)
        }
        fn collect_witnesses(&self, topo: &Topology, u: NodeId, v: NodeId, out: &mut Vec<u32>) {
            ProtocolModel.collect_witnesses(topo, u, v, out)
        }
        fn witness_range(&self, topo: &Topology) -> Option<f64> {
            ProtocolModel.witness_range(topo)
        }
        fn resolve_receptions(
            &self,
            topo: &Topology,
            senders: &NodeSet,
            uninformed: &NodeSet,
        ) -> wsn_phy::ReceptionOutcome {
            let on_builder = std::thread::current().id() == self.builder;
            if !on_builder {
                self.helper_ran.store(true, Ordering::Relaxed);
            }
            match self.trip {
                Trip::Helper if !on_builder => panic!("tripwire on the helper"),
                Trip::ChainAfterHelper if on_builder && self.helper_ran.load(Ordering::Relaxed) => {
                    panic!("tripwire on the chain")
                }
                _ => ProtocolModel.resolve_receptions(topo, senders, uninformed),
            }
        }
    }

    /// Runs a helped chain on a 200-node paper instance under a duty cycle
    /// (so it stays above the depth bound and kicks) and a [`Tripwire`], and
    /// returns its panic message, or `None` when it ends.
    fn tripped_chain(trip: Trip) -> Option<String> {
        let (topo, src) = SyntheticDeployment::paper(200).sample(4);
        let wake = WindowedRandom::new(topo.len(), 4, 4);
        let config = AnytimeConfig {
            budget: Budget::Iterations(200_000),
            ..AnytimeConfig::default()
        };
        let helper_ran = AtomicBool::new(false);
        let model = Tripwire {
            builder: std::thread::current().id(),
            trip,
            helper_ran: &helper_ran,
        };
        let ctx = ChainCtx {
            lookahead: true,
            ..ChainCtx::standalone(topo.len())
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_chain(&topo, src, &wake, &model, &config, ctx)
        }));
        assert!(helper_ran.load(Ordering::Relaxed), "the helper must start");
        let payload = run.err()?;
        Some(match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
        })
    }

    /// A helper that dies makes the chain panic instead of waiting for a
    /// restart that never comes.
    #[test]
    fn lookahead_helper_panic_fails_the_chain() {
        let message = tripped_chain(Trip::Helper).expect("the chain must panic");
        assert!(message.contains("the lookahead helper died"), "{message}");
    }

    /// A chain that dies stops its helper: `catch_unwind` returns only once
    /// the scope has joined it, and the chain's own panic is the one that
    /// surfaces.
    #[test]
    fn lookahead_chain_panic_stops_the_helper() {
        let message = tripped_chain(Trip::ChainAfterHelper).expect("the chain must panic");
        assert_eq!(message, "tripwire on the chain");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Sync (always awake, or windowed at rate 1: both ranked by
        /// reach) and duty, dead masks, warm hints: the helper changes no
        /// result.
        #[test]
        fn lookahead_changes_no_result(
            seed in 0..500u64,
            n in 50usize..300,
            rate in prop::sample::select(vec![0u32, 1, 4, 10]),
            dead_every in prop::sample::select(vec![0usize, 7, 23]),
            warm in 0u8..2,
            budget in 2_000u64..8_000,
        ) {
            let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
            let config = AnytimeConfig {
                budget: Budget::Iterations(budget),
                seed: seed ^ 0x1CC5,
                ..AnytimeConfig::default()
            };
            let dead = (dead_every > 0)
                .then(|| closed_mask(&topo, src, (seed as usize % 5..n).step_by(dead_every)));
            fn check<S: WakeSchedule>(
                topo: &Topology,
                src: NodeId,
                wake: &S,
                config: &AnytimeConfig,
                warm: bool,
                dead: Option<&NodeSet>,
            ) {
                let old = warm.then(|| solve_anytime(topo, src, wake, &ProtocolModel, config));
                check_lookahead(topo, src, wake, config, old.as_ref().map(|out| &out.schedule), dead);
            }
            if rate == 0 {
                check(&topo, src, &AlwaysAwake, &config, warm == 1, dead.as_ref());
            } else {
                let wake = WindowedRandom::new(n, rate, seed ^ 0xD0);
                check(&topo, src, &wake, &config, warm == 1, dead.as_ref());
            }
        }
    }
}
