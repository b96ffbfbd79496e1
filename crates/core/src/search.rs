//! The OPT and G-OPT searches: exact minimization of the time counter `M`.
//!
//! Eq. (4) defines the delay of a broadcast as the fixpoint of
//! `M(W, t) = M(W + A(W, t), t + 1)` with `M(N, t) = t − 1`; OPT (Eq. 5/6)
//! picks at every state the color minimizing the continuation over *all*
//! admissible colors, G-OPT (Eq. 7/8) over the greedy classes only. Both
//! are realized here as one memoized depth-first branch-and-bound:
//!
//! * **State** — `(W, t mod P)` where `P` is the wake schedule's period:
//!   the remaining delay is Markov in the informed set and the schedule
//!   phase (rem(W, t) = rem(W, t + P) by periodicity).
//! * **Upper bound seeding** — the pipeline with the plain greedy selector
//!   provides an achievable initial budget, so the search only explores
//!   improving branches.
//! * **Lower bound** — `max(hop, flood)`. An uninformed node `h` hops from
//!   `W` needs at least `h` further slots (one advance per slot). Under a
//!   duty cycle the conflict-free flood from `(W, t)` also counts the
//!   waits for wake-ups: no schedule completes before it does; see
//!   [`crate::bounds::FloodBound`]. A state whose bound exceeds its budget
//!   is pruned and memoized as a lower bound, and a branch that meets the
//!   bound ends the state's branch loop.
//! * **Branch rules** — greedy classes (G-OPT), or every maximal
//!   conflict-free sender set plus the maximal extensions of the greedy
//!   classes (OPT; including the extensions guarantees OPT ≤ G-OPT even
//!   when the enumeration cap truncates). At a state whose budget equals
//!   its hop bound, both keep only the sets that bring every farthest
//!   node one hop closer (the tight-state note below).
//!
//! Monotonicity (a larger informed set can always simulate a smaller one)
//! justifies both never-defer and maximal-set branching; the property tests
//! in `tests/` check optimality against exhaustive search on small
//! instances.
//!
//! # DESIGN: the flood bound, phase folding, dominance pruning, and certification
//!
//! Keying the memo on the raw phase is what makes the duty-cycled regime
//! hard: `WindowedRandom` has `P = r × windows`, so at `r = 50` the phase
//! axis alone multiplies the state space by thousands, and the same
//! informed set reached along two timing paths memoizes twice. Three
//! mechanisms attack that, and a fourth decides when a capped search has
//! still proved its answer:
//!
//! * **The wake-aware flood bound** ([`crate::bounds::FloodBound`]). The
//!   hop bound ignores wake-ups, so on duty instances it sits far below
//!   the true remainder and the branch loop rarely stops early. The flood
//!   bound is the completion slot of a conflict-free flood under the same
//!   wake schedule, and it is often tight: then the first path that meets
//!   it is proved optimal. It is the one prune G-OPT gets, since G-OPT has
//!   no dominance pruning (below). It runs only when the period exceeds 1
//!   (a period-1 schedule is always awake, and there the flood equals the
//!   hop bound), reuses its scratch across states, and stops as soon as it
//!   proves the state over budget. No option turns it off: a proven lower
//!   bound only cuts subtrees that cannot beat the budget.
//! * **Phase-folded memo keys** ([`SearchConfig::phase_fold`]). The
//!   remaining delay from `(W, t)` depends on the wake schedule only
//!   through `can_send(u, t + h)` for nodes `u` in the *relevant set*
//!   `R(W) = {u : N(u) ∩ W̄ ≠ ∅}` — every present or future candidate
//!   sender has an uninformed neighbor now, because `W` only grows down a
//!   subtree (monotonicity) so `W̄` only shrinks and `R` with it. And a
//!   completion in `L` slots only reads offsets `h < L`. So two phases
//!   whose wake patterns *restricted to `R(W)`* agree over a horizon `H`
//!   share every schedule of length ≤ `H` (periodicity makes the window
//!   well-defined), and may share one memo entry for any exact remainder
//!   `rem ≤ H` or lower bound `lb ≤ H + 1`. The searcher builds a geometric
//!   horizon ladder (8, 32, 128, … capped below the period and the seeded
//!   root budget), renders the schedule once into a
//!   [`wsn_dutycycle::WakePatternTable`], and interns each state's joint
//!   signature — the relevant nodes' windows, in node order, packed back
//!   to back as raw bits — into a collision-free dense id
//!   ([`wsn_bitset::WordSeqInterner`]); the memo key becomes
//!   `(StateId, pattern-class)`. The signature needs no per-node ids:
//!   `R(W)` is a function of `W`, whose id is the other half of the key,
//!   so a window's position in the signature names its node. An exact
//!   result is stored at the smallest horizon certifying it, so short
//!   remainders — the bulk of the state space — fold across the
//!   thousands of phases that look alike near the end of a broadcast.
//!   Lookups probe every ladder level plus the raw phase (the store of
//!   last resort), and never insert signatures, so misses cost nothing.
//!   Reconstruction re-derives any suffix whose memoized choices came
//!   from a folded phase by re-running the (warm) search from that state.
//! * **Superset dominance** (OPT on one channel, outside exhaustive mode).
//!   For the all-colors value function, `W ⊆ W'` implies
//!   `rem(W) ≥ rem(W')` (the larger set can simulate any continuation of
//!   the smaller), so a memoized exact result for a superset is a valid
//!   lower bound: the searcher keeps a small per-phase store of exact
//!   results and scans it for supersets before branching, and inside the
//!   branch loop prunes any color whose coverage is a subset of an
//!   already-evaluated sibling's. Both bounds also feed the branch loop's
//!   floor, stopping it as soon as a branch meets the strongest known
//!   lower bound. G-OPT is excluded: its greedy-restricted value function
//!   carries no such monotonicity guarantee. Under a truncated enumeration
//!   the memoized values are beam values, so the pruning is then a beam
//!   heuristic and proves nothing (see certification below).
//! * **Certification by the root bound, and lazy completion.** A result
//!   is [`SearchOutcome::exact`] when its latency equals the root bound
//!   `max(hop, flood)` from `(source, t_s)` — no schedule beats a proven
//!   lower bound, whatever the beam did on the way — or when the search
//!   ran to the end with no enumeration truncated and no cap hit. Only
//!   those two bounds certify: memo values and dominance entries recorded
//!   under a truncated enumeration are relative to the beam. When an OPT
//!   result misses the root bound and some enumeration truncated (and the
//!   beam did not already hit the state cap), the searcher drops every
//!   beam-relative entry and searches again with
//!   complete enumeration (up to `COMPLETE_SET_CAP` = 4 096 maximal sets
//!   per state) under the budget `latency − 1` and a fresh
//!   [`SearchConfig::max_states`]. If that pass neither truncates nor hits
//!   the state cap, it proves the optimum: it either finds a better
//!   schedule or shows there is none. Otherwise the beam result stands,
//!   flagged inexact. Complete enumeration cannot be the default: on the
//!   300-node paper instances a state can have more than 10⁶ maximal sets.
//!
//! # DESIGN: tight states
//!
//! A state `W` whose remaining budget equals its hop bound `h` is *tight*:
//! a child whose hop bound is still `h` exceeds the child's budget `h − 1`
//! and is pruned on entry. Call the uninformed nodes `h` hops from `W` the
//! *far* nodes. A child informs only level-1 nodes (uninformed neighbours
//! of `W`), and every node of `W` is at least `h` hops from a far node, so
//! the child's bound drops below `h` exactly when, for every far node
//! `x`, the senders inform a level-1 node on a shortest path to `x`.
//! [`HopBound::hit_masks`] turns that into one `u64` per candidate: the
//! far nodes it brings one hop closer (the 64 lowest ids when there are
//! more; any subset of the far nodes still gives a necessary condition).
//! OPT's Bron–Kerbosch then enumerates only the sets whose masks cover
//! every far bit, cutting a subtree as soon as its chosen and
//! still-possible senders cannot ([`wsn_coloring::HitMasks`]). The greedy
//! classes, extended (OPT) or not (G-OPT), are filtered by the same masks.
//!
//! Dropping such a set never loses a schedule within the budget: its
//! child is one the hop bound (or a memo entry) refuses on entry. What
//! changes is where the beam looks. Without the rule, the 64 sets of a
//! tight state's beam were the first that Bron–Kerbosch happened to find,
//! and on paper-grid's `(300, 1)` deployment none of them met the hop
//! bound for most of the search: sync OPT evaluated 909 states. With it,
//! the beam holds only sets that can, and the search takes 36 states to
//! the same exact 7 slots. A tight state may have no qualifying set at
//! all; it then records the lower bound `budget + 1`, as a state does
//! whose every branch fails.
//!
//! A cut subtree costs one visit of the enumeration's budget (the
//! `branch_cap` of the beam, [`COMPLETE_SET_CAP`] in the complete pass),
//! which counts enumerated sets plus cut subtrees. So a state whose few
//! qualifying sets hide among many cut subtrees truncates instead of
//! running long, and that truncation counts toward
//! [`SearchStats::truncated_enumerations`] and the complete pass's give-up
//! like any other. The rule is off under multi-channel models: packing
//! adds senders on channels `1..K` after the seeds are chosen, so a seed
//! that misses a far node may still reach it once packed.

use crate::bounds::{FloodBound, HopBound};
use crate::pipeline::{run_pipeline_model, MaxReceiversSelector, PipelineConfig};
use crate::schedule::{Schedule, ScheduleEntry};
use crate::trace::{SearchTrace, TraceOption, TraceState};
use std::collections::HashMap;
use wsn_bitset::{NodeSet, SetInterner, StateId, WordSeqInterner};
use wsn_coloring::{extend_to_maximal, maximal_conflict_free_sets, BroadcastState, HitMasks};
use wsn_dutycycle::{Slot, WakePatternTable, WakeSchedule};
use wsn_interference::ConflictGraph;
use wsn_phy::{ConflictModel, ProtocolModel};
use wsn_topology::{NodeId, Topology};

/// Search parameters. No field depends on the regime: the figure sweeps
/// and the benchmark run one configuration (`wsn_bench::AdaptiveBudget`)
/// in the synchronous and the duty-cycled regime alike.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Slot from which the source may first transmit (`t_s` is its first
    /// sending slot at or after this).
    pub start_from: Slot,
    /// OPT only: maximum number of maximal sets enumerated per state
    /// (at a tight state, sets plus subtrees cut by the hop-bound masks;
    /// see the module doc). A state with more is branched as a beam over
    /// the first `branch_cap` (plus the greedy-class extensions), which
    /// can cost exactness; see the certification note in the module doc.
    pub branch_cap: usize,
    /// Hard cap on distinct states evaluated per pass; beyond it new
    /// states are abandoned (the search still returns a valid schedule,
    /// flagged inexact unless it meets the root bound).
    pub max_states: usize,
    /// Record a [`SearchTrace`] (used by the table binaries).
    pub collect_trace: bool,
    /// Disable upper-bound seeding, budget tightening, phase folding and
    /// dominance pruning so that every branch is evaluated exactly —
    /// required for complete paper-style traces; only sensible on small
    /// fixtures.
    pub exhaustive: bool,
    /// Fold memo keys across phases whose wake patterns agree on the
    /// uninformed neighborhood (see the module-level DESIGN note). No-op
    /// for period-1 schedules, so the synchronous searches are unaffected.
    pub phase_fold: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            start_from: 1,
            branch_cap: 64,
            max_states: 2_000_000,
            collect_trace: false,
            exhaustive: false,
            phase_fold: true,
        }
    }
}

/// Search statistics.
///
/// `pruned`, `truncated_enumerations` and `memo_entries` are `u32`: a pass
/// stops at [`SearchConfig::max_states`] states, and no configuration in
/// the workspace comes near `u32::MAX` of them. Sweeps and the paper-grid
/// benchmark keep one `SearchStats` per solve, so each word of this struct
/// costs memory in proportion to the number of solves. The other counters
/// stay `usize`, the type their callers sum them in.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// `(W, phase)` state evaluations (re-evaluations after a lower-bound
    /// abandonment included).
    pub states: usize,
    /// Memo lookups that short-circuited a subtree.
    pub memo_hits: usize,
    /// Branches pruned by bound reasoning.
    pub pruned: u32,
    /// States whose OPT enumeration hit the exploration cap (both passes:
    /// the beam and, when it runs, the complete enumeration).
    pub truncated_enumerations: u32,
    /// `true` when `max_states` stopped a pass somewhere.
    pub state_cap_hit: bool,
    /// Distinct informed sets canonicalized by the memo-key interner.
    pub interned_sets: usize,
    /// Conflict-graph rows computed from scratch during the search.
    pub conflict_rows_built: usize,
    /// Conflict-graph rows carried across states by the incremental
    /// builder. `built + reused` is what a rebuild-per-state strategy
    /// would have computed, so `reused ≥ built` means the substrate cut
    /// row computations at least in half. Reuse needs a search that walks
    /// sibling states (they share candidate lists): synchronous G-OPT
    /// does, and `tests/substrate_regression.rs` pins the cut there.
    /// Synchronous OPT with dominance pruning barely branches, so it
    /// reuses few rows. Duty-cycle searches churn the candidate list every
    /// slot (the awake set changes wholesale), so there `reused < built`
    /// is the measured norm — also pinned, so an improvement to
    /// duty-regime row reuse shows up as a test update, not silently.
    pub conflict_rows_reused: usize,
    /// Entries in the memo at the end of the search — the distinct
    /// memoized states after phase folding (equals the distinct
    /// `(W, phase)` keys when folding is off or trivial).
    pub memo_entries: u32,
    /// Distinct joint wake-pattern signatures interned by the phase
    /// folder, counted per fold level across all states: two states whose
    /// relevant windows pack to the same bits share one class (0 when
    /// folding is off or the schedule has period 1).
    pub phase_classes: usize,
    /// Branches or states pruned by superset dominance (memo-store scans
    /// plus sibling coverage subsumption).
    pub dominance_prunes: usize,
}

/// Result of a search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The best schedule found.
    pub schedule: Schedule,
    /// End-to-end latency of that schedule (`t_e − t_s + 1`).
    pub latency: Slot,
    /// `true` only when the result is proved optimal for the branch rule:
    /// its latency equals the root lower bound `max(hop, flood)`, or a
    /// pass ran to the end with no enumeration truncated and no state cap
    /// hit (for a beam OPT result, the lazy complete-enumeration pass; see
    /// the module doc). A result that meets the root bound is optimal
    /// under every branch rule, since no schedule beats it.
    pub exact: bool,
    /// Statistics.
    pub stats: SearchStats,
    /// The trace, when requested.
    pub trace: Option<SearchTrace>,
}

/// Which colors a state may branch over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BranchRule {
    /// The λ classes of the extended greedy scheme (G-OPT, Eq. 7/8).
    GreedyClasses,
    /// All maximal conflict-free sender sets (OPT, Eq. 5/6), capped.
    MaximalSets,
}

/// G-OPT: minimum-latency schedule over greedy-scheme colors (Eq. 7/8).
pub fn solve_gopt<S: WakeSchedule>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    config: &SearchConfig,
) -> SearchOutcome {
    solve_gopt_with(topo, source, wake, config, &mut BroadcastState::new())
}

/// As [`solve_gopt`], reusing a caller-provided substrate (one per sweep
/// worker instead of one per instance).
pub fn solve_gopt_with<S: WakeSchedule>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    config: &SearchConfig,
    state: &mut BroadcastState,
) -> SearchOutcome {
    solve_gopt_model(topo, source, wake, &ProtocolModel, config, state)
}

/// As [`solve_gopt_with`], under an arbitrary [`ConflictModel`] (greedy
/// classes colored on the model's conflict graph; multi-channel models
/// pack extra channels per advance). The default protocol model takes
/// exactly the pre-model code path.
pub fn solve_gopt_model<S: WakeSchedule, M: ConflictModel>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    model: &M,
    config: &SearchConfig,
    state: &mut BroadcastState,
) -> SearchOutcome {
    let started = wsn_obs::enabled().then(std::time::Instant::now);
    let out =
        Searcher::new(topo, wake, model, config, BranchRule::GreedyClasses, state).run(source);
    if let Some(t0) = started {
        record_search_obs("searcher.gopt_solves", &out, t0.elapsed());
    }
    out
}

/// OPT: minimum-latency schedule over every admissible color (Eq. 5/6).
///
/// A beam search over at most [`SearchConfig::branch_cap`] maximal sets
/// per state, whose result is still ≤ the G-OPT latency (greedy classes
/// are always in the branch set). When a truncated beam misses the root
/// lower bound, a complete-enumeration pass proves or improves it (see
/// [`SearchOutcome::exact`]).
pub fn solve_opt<S: WakeSchedule>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    config: &SearchConfig,
) -> SearchOutcome {
    solve_opt_with(topo, source, wake, config, &mut BroadcastState::new())
}

/// As [`solve_opt`], reusing a caller-provided substrate.
pub fn solve_opt_with<S: WakeSchedule>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    config: &SearchConfig,
    state: &mut BroadcastState,
) -> SearchOutcome {
    solve_opt_model(topo, source, wake, &ProtocolModel, config, state)
}

/// As [`solve_opt_with`], under an arbitrary [`ConflictModel`]. The branch
/// sets are maximal conflict-free sets *of the model's graph*; under a
/// multi-channel model each branch seeds channel 0 and the remaining
/// candidates fill channels `1..K` greedily, which can only add coverage
/// (so the searched latency is an upper bound on true multi-channel OPT
/// and collapses to exactly the single-channel search at `K = 1`).
pub fn solve_opt_model<S: WakeSchedule, M: ConflictModel>(
    topo: &Topology,
    source: NodeId,
    wake: &S,
    model: &M,
    config: &SearchConfig,
    state: &mut BroadcastState,
) -> SearchOutcome {
    let started = wsn_obs::enabled().then(std::time::Instant::now);
    let out = Searcher::new(topo, wake, model, config, BranchRule::MaximalSets, state).run(source);
    if let Some(t0) = started {
        record_search_obs("searcher.opt_solves", &out, t0.elapsed());
    }
    out
}

/// Promote a finished search's [`SearchStats`] to `wsn-obs` metrics: one
/// bulk export per solve, never per state, so the enabled overhead is a
/// dozen atomic RMWs amortized over the whole search. Only reached when
/// recording is enabled (the disabled path is the single relaxed load in
/// [`wsn_obs::enabled`] plus a skipped `Instant::now`).
#[cold]
fn record_search_obs(solves: &'static str, out: &SearchOutcome, wall: std::time::Duration) {
    let s = &out.stats;
    wsn_obs::counter_add(solves, 1);
    wsn_obs::counter_add("searcher.states", s.states as u64);
    wsn_obs::counter_add("searcher.memo_hits", s.memo_hits as u64);
    wsn_obs::counter_add("searcher.pruned", s.pruned as u64);
    wsn_obs::counter_add("searcher.dominance_prunes", s.dominance_prunes as u64);
    wsn_obs::counter_add(
        "searcher.truncated_enumerations",
        s.truncated_enumerations as u64,
    );
    wsn_obs::counter_add("searcher.conflict_rows_built", s.conflict_rows_built as u64);
    wsn_obs::counter_add(
        "searcher.conflict_rows_reused",
        s.conflict_rows_reused as u64,
    );
    if s.state_cap_hit {
        wsn_obs::counter_add("searcher.state_cap_hits", 1);
    }
    wsn_obs::gauge_set("searcher.memo_entries", s.memo_entries as i64);
    wsn_obs::gauge_set("searcher.phase_classes", s.phase_classes as i64);
    wsn_obs::observe_us("searcher.wall_us", wall.as_micros() as u64);
    wsn_obs::observe_us("searcher.latency_slots", out.latency);
}

/// Exact memo entry: the remaining delay, with the chosen sender set and
/// its channel assignment.
struct Exact {
    rem: Slot,
    choice: Box<[NodeId]>,
    channels: Box<[u8]>,
}

/// A memo key: the interned informed set and a salted phase key.
type MemoKey = (StateId, u64);

/// One branch of a state: a sender set (channel 0 under multi-channel
/// models seeds it, packed extras carry their channel ids).
struct Branch {
    senders: Vec<NodeId>,
    channels: Vec<u8>,
}

/// Sentinel budget for exhaustive mode: effectively infinite but with
/// headroom against overflow in `budget + t` arithmetic.
const INF_BUDGET: Slot = Slot::MAX / 4;

/// High bit tagging folded memo keys, keeping them disjoint from raw
/// phases (periods are asserted far below this).
const FOLD_KEY: u64 = 1 << 63;

/// Ladder depth cap — a backstop; the period/budget clamps bind first.
const MAX_FOLD_LEVELS: usize = 8;

/// Maximal sets per state the complete-enumeration pass may enumerate
/// (counting subtrees cut at tight states) before it gives up (and the
/// beam result stands, inexact).
const COMPLETE_SET_CAP: usize = 4096;

/// Exact results kept per phase for superset-dominance scans.
const DOMINANCE_BUCKET_CAP: usize = 16;

/// `true` when the hit masks of `set`'s members cover the target.
fn covers(cg: &ConflictGraph, hit: HitMasks<'_>, set: &[NodeId]) -> bool {
    let reach = set.iter().fold(0, |m, &u| {
        m | hit.masks[cg.index_of(u).expect("branch members are candidates")]
    });
    reach & hit.target == hit.target
}

/// `true` when `sup` ⊇ `sub`, word-parallel.
#[inline]
fn is_superset(sup: &[u64], sub: &[u64]) -> bool {
    sub.iter().zip(sup).all(|(&s, &p)| s & !p == 0)
}

/// The phase-folding tables: a rendered wake schedule, the horizon ladder,
/// and the interner that canonicalizes restricted wake-pattern signatures
/// to dense collision-free class ids (see the module-level DESIGN note).
struct PhaseFolder {
    table: WakePatternTable,
    /// Ascending fold horizons, all `< period`; the last is the first
    /// ladder rung at or above the root budget (so every non-exhaustive
    /// remainder has a certifying level) unless the period clamps earlier.
    levels: Vec<u32>,
    /// Joint signatures — the relevant nodes' windows, packed — namespaced
    /// by level.
    joints: WordSeqInterner,
    /// Scratch: the relevant set `R(W)` of the state being keyed.
    relevant: NodeSet,
    /// Scratch: the packed joint signature.
    packed: Vec<u64>,
    /// Scratch: window extraction buffer.
    wbuf: Vec<u64>,
}

impl PhaseFolder {
    /// Builds the folder, or `None` when the schedule's period is too
    /// short for any fold horizon to exist (e.g. the synchronous system).
    fn new<S: WakeSchedule>(wake: &S, n: usize, root_budget: Slot) -> Option<Self> {
        let period = wake.period();
        let mut levels = Vec::new();
        let mut h: u64 = 8;
        while h < period && levels.len() < MAX_FOLD_LEVELS {
            levels.push(h as u32);
            if h >= root_budget {
                break;
            }
            h *= 4;
        }
        if levels.is_empty() {
            return None;
        }
        debug_assert!(levels.iter().all(|&h| 64 % h == 0 || h % 64 == 0));
        Some(PhaseFolder {
            table: WakePatternTable::build(wake, n),
            levels,
            joints: WordSeqInterner::new(),
            relevant: NodeSet::new(n),
            packed: Vec::new(),
            wbuf: Vec::new(),
        })
    }

    /// Loads the relevant set `R(W)` — every node with an uninformed
    /// neighbor — for subsequent [`PhaseFolder::key_at`] calls.
    fn prepare(&mut self, topo: &Topology, informed: &NodeSet) {
        self.relevant.clear();
        for u in 0..topo.len() {
            if !topo.neighbor_set(NodeId(u as u32)).is_subset(informed) {
                self.relevant.insert(u);
            }
        }
    }

    /// The memo key of the prepared state at fold level `li` and `phase`.
    /// The signature is every relevant node's `horizon`-bit window, in
    /// node order, packed back to back. With `insert` false (lookups) the
    /// key exists only if the exact signature was interned by an earlier
    /// store; misses return `None` without touching the arena.
    fn key_at(&mut self, li: usize, phase: Slot, insert: bool) -> Option<u64> {
        let PhaseFolder {
            table,
            levels,
            joints,
            relevant,
            packed,
            wbuf,
        } = self;
        let horizon = levels[li];
        // Every horizon is 8·4^k: a window fills whole words or packs
        // evenly into one, so none straddles a word boundary.
        let used = (horizon as usize).min(64);
        packed.clear();
        let mut bits = 0usize;
        for u in relevant.iter() {
            wbuf.clear();
            table.window(u, phase, horizon, wbuf);
            for &w in wbuf.iter() {
                match bits % 64 {
                    0 => packed.push(w),
                    off => *packed.last_mut().expect("a partial word is open") |= w << off,
                }
                bits += used;
            }
        }
        let joint = if insert {
            joints.intern(li as u64, packed)
        } else {
            joints.get(li as u64, packed)?
        };
        Some(FOLD_KEY | ((li as u64) << 32) | joint as u64)
    }

    /// Smallest fold level whose horizon certifies an exact remainder.
    fn level_for_exact(&self, rem: Slot) -> Option<usize> {
        self.levels.iter().position(|&h| h as u64 >= rem)
    }

    /// Smallest fold level whose horizon certifies a lower bound (`lb`
    /// rules out schedules of length `< lb`, which read `lb − 1` offsets).
    fn level_for_bound(&self, lb: Slot) -> Option<usize> {
        self.levels.iter().position(|&h| h as u64 + 1 >= lb)
    }
}

struct Searcher<'a, S: WakeSchedule, M: ConflictModel> {
    topo: &'a Topology,
    wake: &'a S,
    /// The conflict model every graph, branch set and reception check of
    /// this search runs under.
    model: &'a M,
    config: &'a SearchConfig,
    rule: BranchRule,
    /// Exact results keyed by `(interned W, phase key)` — the phase key
    /// is either the raw `t mod period` or a folded `(level,
    /// pattern-class)` id, both collision-free by construction, and both
    /// salted with the model fingerprint (`key_salt`).
    memo: HashMap<MemoKey, Exact>,
    /// Proven lower bounds, under the same keys. A key sits in at most
    /// one of the two maps: an exact result replaces a bound, and a bound
    /// never overwrites an exact result. Kept apart, a bound takes
    /// one word, not the width of an exact entry.
    bounds: HashMap<MemoKey, Slot>,
    /// Model-fingerprint salt XORed into every phase key. The memo is
    /// per-run today (one model per `Searcher`), so this is a structural
    /// guard, not a live disambiguator: entries are regime-tagged by
    /// construction, so a future persistent/shared memo cannot silently
    /// mix conflict regimes. XOR by a per-run constant is a bijection —
    /// it introduces no collisions.
    key_salt: u64,
    /// Canonicalizes informed sets to the dense ids the memo keys on.
    interner: SetInterner,
    /// Phase-folding tables (`None` = raw phase keys only).
    folder: Option<PhaseFolder>,
    /// Exact results bucketed by raw phase, scanned for supersets of a
    /// new state (OPT dominance).
    dominance: HashMap<Slot, Vec<(StateId, Slot)>>,
    /// `true` when dominance pruning is active for this run.
    use_dominance: bool,
    /// `true` during the complete-enumeration pass: enumerate up to
    /// [`COMPLETE_SET_CAP`] sets per state instead of `branch_cap`.
    complete: bool,
    /// Set when the complete-enumeration pass truncates; every later
    /// state is abandoned, since the pass can no longer prove anything.
    gave_up: bool,
    /// The state count at which the current pass hits `max_states`.
    state_limit: usize,
    /// Shared substrate: scratch sets, candidate buffers, and the
    /// incrementally-maintained conflict graph.
    state: &'a mut BroadcastState,
    /// Scratch for the per-state hop bound; at a tight state it also
    /// yields the far-node masks of the candidates.
    hops: HopBound,
    /// Scratch: the candidates' far-node masks at a tight state.
    hit_masks: Vec<u64>,
    /// Scratch for the per-state wake-aware flood bound.
    flood: FloodBound,
    /// Scratch: the uninformed set of the state being branched (channel
    /// packing reads it while the conflict graph borrows the substrate).
    unf_scratch: NodeSet,
    stats: SearchStats,
    trace: SearchTrace,
}

impl<'a, S: WakeSchedule, M: ConflictModel> Searcher<'a, S, M> {
    fn new(
        topo: &'a Topology,
        wake: &'a S,
        model: &'a M,
        config: &'a SearchConfig,
        rule: BranchRule,
        state: &'a mut BroadcastState,
    ) -> Self {
        Searcher {
            topo,
            wake,
            model,
            config,
            rule,
            memo: HashMap::new(),
            bounds: HashMap::new(),
            key_salt: model.fingerprint(),
            interner: SetInterner::new(topo.len()),
            folder: None,
            dominance: HashMap::new(),
            // Dominance soundness rests on rem(W) being monotone in W,
            // proven for the all-maximal-sets branch rule on ONE channel.
            // Greedy channel packing makes per-branch coverage
            // non-monotone in W (channels exhaust on different
            // candidates), so K > 1 runs keep dominance off.
            use_dominance: !config.exhaustive
                && rule == BranchRule::MaximalSets
                && model.channels() == 1,
            complete: false,
            gave_up: false,
            state_limit: config.max_states,
            state,
            hops: HopBound::new(),
            hit_masks: Vec::new(),
            flood: FloodBound::new(),
            unf_scratch: NodeSet::new(topo.len()),
            stats: SearchStats::default(),
            trace: SearchTrace::default(),
        }
    }

    fn run(mut self, source: NodeId) -> SearchOutcome {
        assert!(source.idx() < self.topo.len(), "source out of range");
        let n = self.topo.len();
        assert!(
            self.wake.period() < FOLD_KEY,
            "wake period too large for memo key encoding"
        );
        let t_s = self.wake.next_send(source.idx(), self.config.start_from);

        let mut w0 = NodeSet::new(n);
        w0.insert(source.idx());

        if w0.is_full() {
            // Single-node network: nothing to schedule.
            return SearchOutcome {
                schedule: Schedule {
                    source,
                    start: t_s,
                    entries: vec![],
                    repeats: Vec::new(),
                },
                latency: 0,
                exact: true,
                stats: self.stats,
                trace: self.config.collect_trace.then(|| self.trace.clone()),
            };
        }

        // Seed the budget with an achievable pipeline schedule under the
        // same conflict model; it doubles as the fallback when the state
        // cap aborts the search. The pipeline re-targets the shared
        // substrate to this topology, so the search below continues from
        // warm caches.
        let seed = run_pipeline_model(
            self.topo,
            source,
            self.wake,
            self.model,
            &mut MaxReceiversSelector,
            &PipelineConfig {
                start_from: self.config.start_from,
            },
            self.state,
        );
        let budget = if self.config.exhaustive {
            INF_BUDGET
        } else {
            seed.latency()
        };
        if self.config.phase_fold && !self.config.exhaustive {
            self.folder = PhaseFolder::new(self.wake, n, budget);
        }
        let conflict_base = *self.state.conflict_stats();

        let (mut schedule, fell_back) = match self.dfs(&w0, t_s, budget) {
            Some(rem) => match self.reconstruct(source, t_s, &w0, rem) {
                Some(schedule) => {
                    debug_assert!(schedule.latency() <= rem);
                    (schedule, false)
                }
                // The state cap fired while re-deriving a folded suffix;
                // the seed is still a valid schedule.
                None => (seed, true),
            },
            // The search found nothing within the seeded budget: either the
            // state cap aborted it, or (beam OPT only) enumeration caps cut
            // every path that could match the greedy seed. The seed itself
            // is a valid schedule either way.
            None => (seed, true),
        };
        let mut exact = schedule.latency() == self.root_bound(&w0, t_s, schedule.latency())
            || (!fell_back && !self.stats.state_cap_hit && self.stats.truncated_enumerations == 0);
        if !exact
            && !self.config.exhaustive
            && !self.stats.state_cap_hit
            && self.stats.truncated_enumerations > 0
        {
            if let Some(proved) = self.complete_pass(source, t_s, &w0, schedule.latency()) {
                if let Some(better) = proved {
                    schedule = better;
                }
                exact = true;
            }
        }
        let latency = schedule.latency();
        debug_assert!(
            !exact
                || self
                    .flood
                    .lower_bound(self.topo, self.wake, &w0, t_s, latency)
                    <= latency,
            "the flood bound exceeds an exact latency: it is unsound"
        );
        let conflict = self.state.conflict_stats().since(&conflict_base);
        self.stats.conflict_rows_built = conflict.rows_built;
        self.stats.conflict_rows_reused = conflict.rows_reused;
        self.stats.interned_sets = self.interner.len();
        debug_assert!(
            self.bounds.keys().all(|k| !self.memo.contains_key(k)),
            "a memo key sits in both the exact and the bound map"
        );
        self.stats.memo_entries =
            u32::try_from(self.memo.len() + self.bounds.len()).unwrap_or(u32::MAX);
        self.stats.phase_classes = self.folder.as_ref().map_or(0, |f| f.joints.len());
        SearchOutcome {
            latency,
            schedule,
            exact,
            stats: self.stats.clone(),
            trace: self.config.collect_trace.then(|| self.trace.clone()),
        }
    }

    /// The root lower bound `max(hop, flood)` from `(w0, t_s)`; the flood
    /// is capped at `latency + 1`, which is all a comparison with
    /// `latency` needs.
    fn root_bound(&mut self, w0: &NodeSet, t_s: Slot, latency: Slot) -> Slot {
        let hop = self.hops.lower_bound(self.topo, w0);
        if self.wake.period() > 1 {
            hop.max(
                self.flood
                    .lower_bound(self.topo, self.wake, w0, t_s, latency),
            )
        } else {
            hop
        }
    }

    /// The lazy complete-enumeration pass (see the module doc). Drops every
    /// beam-relative memo and dominance entry, then searches `(w0, t_s)`
    /// again under budget `latency − 1`, enumerating up to
    /// [`COMPLETE_SET_CAP`] sets per state, with a fresh state cap. Returns
    /// `None` when the pass truncates or hits the cap (nothing proved),
    /// `Some(None)` when no schedule beats `latency`, and `Some(Some(s))`
    /// with a better schedule, which is then optimal.
    fn complete_pass(
        &mut self,
        source: NodeId,
        t_s: Slot,
        w0: &NodeSet,
        latency: Slot,
    ) -> Option<Option<Schedule>> {
        self.memo.clear();
        self.bounds.clear();
        self.dominance.clear();
        self.complete = true;
        self.state_limit = self.stats.states.saturating_add(self.config.max_states);
        let better = self
            .dfs(w0, t_s, latency - 1)
            .and_then(|rem| self.reconstruct(source, t_s, w0, rem));
        (!self.gave_up && !self.stats.state_cap_hit).then_some(better)
    }

    /// The branch colors of a state, most promising first. Each branch is a
    /// conflict-free sender set among the awake candidates (under a
    /// multi-channel model: the channel-0 seed, packed with extra-channel
    /// senders after ordering — ordering scores the seeds, and packing can
    /// only add coverage). The substrate must be loaded with `(informed,
    /// t)` by the caller, and the hop bound must have run on `informed`
    /// last; one incremental conflict-graph update serves both the greedy
    /// coloring and the maximal-set enumeration. A `tight` state (budget
    /// equal to its hop bound) on one channel keeps only the sets that
    /// bring every far node one hop closer, and may have none.
    fn branches(&mut self, informed: &NodeSet, tight: bool) -> Vec<Branch> {
        let tight = tight && self.model.channels() == 1;
        let sets = match self.rule {
            BranchRule::GreedyClasses if tight => {
                let (mut classes, cg) = self.state.classes_and_graph_with(self.topo, self.model);
                let hit = self
                    .hops
                    .hit_masks(self.topo, cg.candidates(), &mut self.hit_masks);
                classes.retain(|class| covers(cg, hit, class));
                classes
            }
            BranchRule::GreedyClasses => self.state.greedy_classes_with(self.topo, self.model),
            BranchRule::MaximalSets => self.maximal_branch_sets(informed, tight),
        };
        if self.model.channels() <= 1 {
            return sets
                .into_iter()
                .map(|set| Branch {
                    senders: set,
                    channels: Vec::new(),
                })
                .collect();
        }
        // Multi-channel packing: one conflict-graph fetch (a zero-delta
        // builder touch — the substrate is already loaded with this
        // state) and one greedy sweep order for the whole branch list,
        // not one per branch.
        self.unf_scratch.copy_from(informed);
        self.unf_scratch.invert();
        let cg = self.state.conflict_graph_with(self.topo, self.model);
        let order = wsn_coloring::greedy_pack_order(self.topo, cg, &self.unf_scratch);
        sets.into_iter()
            .map(|set| {
                let (senders, channels) = wsn_coloring::pack_channels_ordered(
                    self.topo,
                    cg,
                    &self.unf_scratch,
                    &set,
                    self.model.channels(),
                    &order,
                );
                Branch { senders, channels }
            })
            .collect()
    }

    /// The OPT branch seeds: maximal conflict-free sets plus the maximal
    /// extensions of the greedy classes, most new coverage first. At a
    /// `tight` state, only the sets whose members' masks cover every far
    /// node.
    fn maximal_branch_sets(&mut self, informed: &NodeSet, tight: bool) -> Vec<Vec<NodeId>> {
        let cap = if self.complete {
            COMPLETE_SET_CAP
        } else {
            self.config.branch_cap
        };
        let (classes, cg) = self.state.classes_and_graph_with(self.topo, self.model);
        let hit = tight.then(|| {
            self.hops
                .hit_masks(self.topo, cg.candidates(), &mut self.hit_masks)
        });
        let outcome = maximal_conflict_free_sets(cg, cap, hit);
        if outcome.truncated {
            self.stats.truncated_enumerations += 1;
            self.gave_up |= self.complete;
        }
        let mut sets: Vec<Vec<NodeId>> = outcome
            .sets
            .iter()
            .map(|idxs| {
                let mut v: Vec<NodeId> = idxs.iter().map(|&i| cg.node(i)).collect();
                v.sort_unstable();
                v
            })
            .collect();
        // Guarantee OPT ⊆-dominates G-OPT: extend each greedy class
        // to a maximal set and include it.
        sets.extend(
            classes
                .iter()
                .map(|class| extend_to_maximal(cg, class))
                .filter(|set| hit.is_none_or(|hit| covers(cg, hit, set))),
        );
        sets.sort();
        sets.dedup();
        // Most new coverage first → tight budgets early.
        sets.sort_by_cached_key(|set| {
            std::cmp::Reverse(
                set.iter()
                    .map(|&u| self.topo.neighbor_set(u).difference_len(informed))
                    .sum::<usize>(),
            )
        });
        sets
    }

    /// Gathers every phase key of the state — the raw phase plus one per
    /// fold level whose pattern class already exists (lookup mode) or the
    /// raw phase only (folding off). Every key is salted with the model
    /// fingerprint. Returns the key count.
    fn lookup_keys(&mut self, informed: &NodeSet, phase: Slot, keys: &mut [u64]) -> usize {
        keys[0] = phase ^ self.key_salt;
        let mut n = 1;
        if let Some(f) = self.folder.as_mut() {
            f.prepare(self.topo, informed);
            for li in 0..f.levels.len() {
                if let Some(k) = f.key_at(li, phase, false) {
                    keys[n] = k ^ self.key_salt;
                    n += 1;
                }
            }
        }
        n
    }

    /// Returns the minimum remaining delay (slots from `t` through the last
    /// transmission, inclusive) if it is ≤ `budget`, else `None`. Exact
    /// values and the corresponding first advance are memoized.
    fn dfs(&mut self, informed: &NodeSet, t: Slot, budget: Slot) -> Option<Slot> {
        debug_assert!(!informed.is_full());
        let phase = t % self.wake.period();
        let sid = self.interner.intern(informed);

        let mut keys = [0u64; MAX_FOLD_LEVELS + 1];
        let nkeys = self.lookup_keys(informed, phase, &mut keys);
        let mut known_lb: Slot = 0;
        let mut known_exact: Option<Slot> = None;
        for &key in &keys[..nkeys] {
            if let Some(exact) = self.memo.get(&(sid, key)) {
                known_exact = Some(exact.rem);
                break;
            }
            if let Some(&lb) = self.bounds.get(&(sid, key)) {
                known_lb = known_lb.max(lb);
            }
        }
        if let Some(rem) = known_exact {
            self.stats.memo_hits += 1;
            return (rem <= budget).then_some(rem);
        }
        if known_lb > budget {
            self.stats.memo_hits += 1;
            self.stats.pruned += 1;
            return None;
        }

        if self.gave_up {
            return None;
        }
        if self.stats.states >= self.state_limit {
            self.stats.state_cap_hit = true;
            return None;
        }
        self.stats.states += 1;

        // Admissible lower bound: farthest uninformed node in hops.
        let hop_lb = self.hops.lower_bound(self.topo, informed);
        let mut lb = hop_lb.max(known_lb);
        if hop_lb > budget {
            self.stats.pruned += 1;
            self.record_lower_bound(sid, phase, informed, hop_lb);
            return None;
        }
        // Under a duty cycle the conflict-free flood also counts the waits
        // for wake-ups. A period-1 schedule is always awake, and there the
        // flood equals the hop bound.
        if self.wake.period() > 1 {
            let flood_lb = self
                .flood
                .lower_bound(self.topo, self.wake, informed, t, budget);
            lb = lb.max(flood_lb);
            if flood_lb > budget {
                self.stats.pruned += 1;
                self.record_lower_bound(sid, phase, informed, flood_lb);
                return None;
            }
        }

        // Superset dominance: a memoized exact result for W' ⊇ W at this
        // phase lower-bounds our remainder by monotonicity.
        if self.use_dominance {
            let interner = &self.interner;
            if let Some(bucket) = self.dominance.get(&phase) {
                for &(dsid, drem) in bucket {
                    if drem > lb
                        && dsid != sid
                        && is_superset(interner.words(dsid), informed.words())
                    {
                        lb = drem;
                    }
                }
            }
            if lb > budget {
                self.stats.pruned += 1;
                self.stats.dominance_prunes += 1;
                self.record_lower_bound(sid, phase, informed, lb);
                return None;
            }
        }

        self.state.load_awake(self.topo, informed, self.wake, t);
        if self.state.candidates().is_empty() {
            // Duty-cycle wait: jump to the earliest wake-up among eligible
            // senders. The remaining delay is the wait plus the remainder.
            self.state.load(self.topo, informed);
            let eligible = self.state.candidates();
            assert!(
                !eligible.is_empty(),
                "broadcast cannot complete: disconnected topology"
            );
            let t_next = eligible
                .iter()
                .map(|u| self.wake.next_send(u.idx(), t + 1))
                .min()
                .expect("non-empty");
            let wait = t_next - t;
            if self.config.collect_trace {
                self.trace.states.push(TraceState {
                    informed: informed.to_vec(),
                    slot: t,
                    options: vec![],
                    chosen: None,
                    jumped_to: Some(t_next),
                });
            }
            if wait + 1 > budget {
                self.stats.pruned += 1;
                self.record_lower_bound(sid, phase, informed, wait + 1);
                return None;
            }
            let sub = self.dfs(informed, t_next, budget - wait);
            return match sub {
                Some(r) => {
                    // Memoize through the wait so reconstruction can replay.
                    self.record_exact(
                        sid,
                        phase,
                        informed,
                        wait + r,
                        Box::default(),
                        Box::default(),
                    );
                    Some(wait + r)
                }
                None => {
                    self.record_lower_bound(sid, phase, informed, wait + 1);
                    None
                }
            };
        }

        // A state whose budget equals its hop bound is tight: every child
        // must bring every far node one hop closer (see the DESIGN note).
        // Its branch list may be empty; the loop below then records the
        // bound `budget + 1`.
        let branches = self.branches(informed, hop_lb == budget);

        let trace_idx = if self.config.collect_trace {
            self.trace.states.push(TraceState {
                informed: informed.to_vec(),
                slot: t,
                options: branches
                    .iter()
                    .map(|b| TraceOption {
                        class: b.senders.clone(),
                        m_value: None,
                    })
                    .collect(),
                chosen: None,
                jumped_to: None,
            });
            Some(self.trace.states.len() - 1)
        } else {
            None
        };

        // No branch can beat the strongest known lower bound; stop the
        // loop as soon as one meets it.
        let floor = lb.max(1);
        let mut best: Option<(Slot, usize)> = None;
        let mut local_budget = budget;
        let mut evaluated: Vec<NodeSet> = Vec::new();
        for (bi, branch) in branches.iter().enumerate() {
            let mut next = informed.clone();
            for &u in &branch.senders {
                next.union_with(self.topo.neighbor_set(u));
            }
            if self.use_dominance && evaluated.iter().any(|prev| next.is_subset(prev)) {
                // Sibling dominance: an already-evaluated branch covers at
                // least this much, and every evaluated sibling is over the
                // tightened budget, so by monotonicity this one is too.
                self.stats.pruned += 1;
                self.stats.dominance_prunes += 1;
                continue;
            }
            let rem = if next.is_full() {
                Some(1)
            } else if local_budget == 0 {
                self.stats.pruned += 1;
                None
            } else {
                self.dfs(&next, t + 1, local_budget - 1).map(|r| r + 1)
            };
            if let Some(r) = rem {
                if let Some(ti) = trace_idx {
                    // Completion slot of this branch: t_e = t + rem − 1.
                    self.trace.states[ti].options[bi].m_value = Some(t + r - 1);
                }
                let better = best.as_ref().is_none_or(|(b, _)| r < *b);
                if better {
                    let done = r == floor;
                    best = Some((r, bi));
                    // Only strictly better continuations are interesting,
                    // unless exhaustive mode wants every exact value.
                    if !self.config.exhaustive {
                        local_budget = r - 1;
                        if done {
                            break;
                        }
                    }
                }
            }
            if self.use_dominance {
                evaluated.push(next);
            }
        }

        match best {
            Some((rem, bi)) => {
                if let Some(ti) = trace_idx {
                    self.trace.states[ti].chosen = Some(bi);
                }
                let chosen = &branches[bi];
                self.record_exact(
                    sid,
                    phase,
                    informed,
                    rem,
                    chosen.senders.clone().into_boxed_slice(),
                    chosen.channels.clone().into_boxed_slice(),
                );
                Some(rem)
            }
            None => {
                self.record_lower_bound(sid, phase, informed, budget + 1);
                None
            }
        }
    }

    /// Memoizes an exact remainder under the tightest phase key certifying
    /// it, and publishes it to the dominance store.
    fn record_exact(
        &mut self,
        sid: StateId,
        phase: Slot,
        informed: &NodeSet,
        rem: Slot,
        choice: Box<[NodeId]>,
        channels: Box<[u8]>,
    ) {
        let key = self.store_key(phase, informed, |f| f.level_for_exact(rem));
        self.bounds.remove(&(sid, key));
        self.memo.insert(
            (sid, key),
            Exact {
                rem,
                choice,
                channels,
            },
        );
        if self.use_dominance {
            let bucket = self.dominance.entry(phase).or_default();
            if bucket.len() < DOMINANCE_BUCKET_CAP {
                bucket.push((sid, rem));
            } else if let Some(weakest) = bucket.iter_mut().min_by_key(|&&mut (_, r)| r) {
                if rem > weakest.1 {
                    *weakest = (sid, rem);
                }
            }
        }
    }

    /// Records `lb` as a proven lower bound under the tightest phase key
    /// certifying it, keeping the strongest bound per key.
    fn record_lower_bound(&mut self, sid: StateId, phase: Slot, informed: &NodeSet, lb: Slot) {
        let key = self.store_key(phase, informed, |f| f.level_for_bound(lb));
        if !self.memo.contains_key(&(sid, key)) {
            let old = self.bounds.entry((sid, key)).or_insert(lb);
            *old = (*old).max(lb);
        }
    }

    /// The phase key to store an entry under: the chosen fold level when
    /// folding is on and a level certifies the value, the raw phase
    /// otherwise. Salted with the model fingerprint like every lookup key.
    fn store_key(
        &mut self,
        phase: Slot,
        informed: &NodeSet,
        pick: impl FnOnce(&PhaseFolder) -> Option<usize>,
    ) -> u64 {
        let raw = match self.folder.as_mut() {
            Some(f) => match pick(f) {
                Some(li) => {
                    f.prepare(self.topo, informed);
                    f.key_at(li, phase, true)
                        .expect("insert-mode key_at always yields a key")
                }
                None => phase,
            },
            None => phase,
        };
        raw ^ self.key_salt
    }

    /// The memoized exact entry of `(informed, t)`, across all phase keys.
    #[allow(clippy::type_complexity)]
    fn lookup_exact(
        &mut self,
        informed: &NodeSet,
        t: Slot,
    ) -> Option<(Slot, Box<[NodeId]>, Box<[u8]>)> {
        let phase = t % self.wake.period();
        let sid = self.interner.intern(informed);
        let mut keys = [0u64; MAX_FOLD_LEVELS + 1];
        let nkeys = self.lookup_keys(informed, phase, &mut keys);
        for &key in &keys[..nkeys] {
            if let Some(e) = self.memo.get(&(sid, key)) {
                return Some((e.rem, e.choice.clone(), e.channels.clone()));
            }
        }
        None
    }

    /// Replays the memoized choices from the root into a schedule.
    /// Returns `None` only if the state cap fires while re-deriving a
    /// folded suffix (the caller then falls back to the seed schedule).
    fn reconstruct(
        &mut self,
        source: NodeId,
        t_s: Slot,
        w0: &NodeSet,
        rem_root: Slot,
    ) -> Option<Schedule> {
        let n = self.topo.len();
        let mut informed = w0.clone();
        let mut entries = Vec::new();
        let mut t = t_s;
        while !informed.is_full() {
            let Some((_, entry, chans)) = self.lookup_exact(&informed, t) else {
                // The optimal path ran through a folded entry whose subtree
                // was memoized under another phase's pattern classes;
                // re-derive this suffix (cheap — the memo is warm) so the
                // choices exist under our keys too.
                let elapsed = t - t_s;
                if rem_root <= elapsed || self.dfs(&informed, t, rem_root - elapsed).is_none() {
                    return None;
                }
                continue;
            };
            if entry.is_empty() {
                // A recorded wait: jump to the next wake-up among eligible
                // senders (same computation as the search).
                self.state.load(self.topo, &informed);
                t = self
                    .state
                    .candidates()
                    .iter()
                    .map(|u| self.wake.next_send(u.idx(), t + 1))
                    .min()
                    .expect("non-empty");
                continue;
            }
            let mut advance = NodeSet::new(n);
            for &u in entry.iter() {
                advance.union_with(self.topo.neighbor_set(u));
            }
            advance.difference_with(&informed);
            informed.union_with(&advance);
            entries.push(ScheduleEntry {
                slot: t,
                senders: entry.to_vec(),
                channels: chans.to_vec(),
            });
            t += 1;
        }
        Some(Schedule {
            source,
            start: t_s,
            entries,
            repeats: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use wsn_dutycycle::{AlwaysAwake, ExplicitSchedule, WindowedRandom};
    use wsn_topology::{deploy, fixtures};

    #[test]
    fn gopt_fig2a_matches_table_ii() {
        let f = fixtures::fig2a();
        let out = solve_gopt(&f.topo, f.source, &AlwaysAwake, &SearchConfig::default());
        assert!(out.exact);
        assert_eq!(out.latency, 2, "Table II: P(A) = 2");
        out.schedule.verify(&f.topo, &AlwaysAwake).unwrap();
        // The optimal first-hop choice is node "2" (covers 4 and 5).
        assert_eq!(out.schedule.entries[1].senders, vec![f.id("2")]);
    }

    #[test]
    fn gopt_fig1_matches_table_iii() {
        let f = fixtures::fig1();
        let out = solve_gopt(&f.topo, f.source, &AlwaysAwake, &SearchConfig::default());
        assert!(out.exact);
        assert_eq!(out.latency, 3, "Table III: P(A) = 3");
        out.schedule.verify(&f.topo, &AlwaysAwake).unwrap();
        // Table III's optimal second advance launches node 1's color.
        assert_eq!(out.schedule.entries[1].senders, vec![f.id("1")]);
        // And the third advance is {0, 4} covering {5,6,7,8,9}.
        assert_eq!(out.schedule.entries[2].senders, vec![f.id("0"), f.id("4")]);
    }

    #[test]
    fn opt_never_worse_than_gopt() {
        for seed in 0..4u64 {
            let (topo, src) = deploy::SyntheticDeployment::paper(60).sample(seed);
            let g = solve_gopt(&topo, src, &AlwaysAwake, &SearchConfig::default());
            let o = solve_opt(&topo, src, &AlwaysAwake, &SearchConfig::default());
            assert!(
                o.latency <= g.latency,
                "seed {seed}: OPT {} > G-OPT {}",
                o.latency,
                g.latency
            );
            o.schedule.verify(&topo, &AlwaysAwake).unwrap();
            g.schedule.verify(&topo, &AlwaysAwake).unwrap();
        }
    }

    #[test]
    fn table_iv_duty_cycle_trace() {
        // Figure 2(e) under the Table IV wake schedule: t_s = 2, the
        // optimum completes at slot 4 (P(A) = 4 in the paper's absolute
        // numbering; elapsed latency 3).
        let f = fixtures::fig2a();
        let wake = ExplicitSchedule::new(vec![vec![2], vec![4, 13], vec![4], vec![9], vec![9]], 20);
        let out = solve_gopt(
            &f.topo,
            f.source,
            &wake,
            &SearchConfig {
                start_from: 1,
                collect_trace: true,
                exhaustive: true,
                ..SearchConfig::default()
            },
        );
        assert_eq!(out.schedule.start, 2);
        assert_eq!(out.schedule.completion_slot(), 4, "Table IV: P(A) = 4");
        out.schedule.verify(&f.topo, &wake).unwrap();

        // The alternative branch (selecting node "3" at slot 4) must defer
        // completion to slot 13 = r + 3, as the paper's last row shows.
        let trace = out.trace.unwrap();
        let slot4 = trace
            .states
            .iter()
            .find(|s| s.slot == 4 && s.options.len() == 2)
            .expect("the two-color state at slot 4");
        assert_eq!(slot4.options[0].m_value, Some(4));
        assert_eq!(slot4.options[1].m_value, Some(13));
        assert_eq!(slot4.chosen, Some(0));
        // And the N/A row at slot 3 is present with a jump to 4.
        assert!(trace
            .states
            .iter()
            .any(|s| s.slot == 3 && s.options.is_empty() && s.jumped_to == Some(4)));
    }

    #[test]
    fn exhaustive_trace_records_all_branch_values() {
        let f = fixtures::fig2a();
        let out = solve_gopt(
            &f.topo,
            f.source,
            &AlwaysAwake,
            &SearchConfig {
                collect_trace: true,
                exhaustive: true,
                ..SearchConfig::default()
            },
        );
        let trace = out.trace.unwrap();
        // Table II state M({1,2,3},2): options C1={2} with M=2, C2={3}
        // with M=3.
        let st = trace
            .states
            .iter()
            .find(|s| s.informed.len() == 3 && s.slot == 2)
            .expect("state with W = {1,2,3}");
        assert_eq!(st.options.len(), 2);
        assert_eq!(st.options[0].m_value, Some(2));
        assert_eq!(st.options[1].m_value, Some(3));
        assert_eq!(st.chosen, Some(0));
    }

    #[test]
    fn search_on_single_node() {
        let topo = wsn_topology::Topology::unit_disk(vec![wsn_geom::Point::new(0.0, 0.0)], 1.0);
        let out = solve_gopt(&topo, NodeId(0), &AlwaysAwake, &SearchConfig::default());
        assert_eq!(out.latency, 0);
        assert!(out.exact);
    }

    #[test]
    fn state_cap_degrades_gracefully() {
        let (topo, src) = deploy::SyntheticDeployment::paper(80).sample(1);
        let out = solve_gopt(
            &topo,
            src,
            &AlwaysAwake,
            &SearchConfig {
                max_states: 1,
                ..SearchConfig::default()
            },
        );
        // Still a valid schedule (the seeded pipeline budget is achievable
        // and reconstruction follows whatever was memoized)…
        out.schedule.verify(&topo, &AlwaysAwake).unwrap();
        // …but flagged inexact.
        assert!(!out.exact);
        assert!(out.stats.state_cap_hit);
    }

    /// Two phases share a fold key exactly when the relevant nodes'
    /// windows agree, at every ladder level: the 8- and 32-slot levels
    /// pack several windows per word, the 128- and 512-slot levels span
    /// several words per window. Across states a key names the packed
    /// bits and nothing else, so two states may share a class; the memo
    /// tells them apart by their `StateId`.
    #[test]
    fn fold_keys_name_the_restricted_windows() {
        let f = fixtures::fig2a();
        let n = f.topo.len();
        let wake = WindowedRandom::with_windows(n, 50, 7, 64);
        let mut folder = PhaseFolder::new(&wake, n, 300).expect("period 3200 folds");
        assert_eq!(folder.levels, [8, 32, 128, 512]);
        // The source alone (every node relevant), and all but node "5"
        // (only its neighbour "2" is relevant).
        let sets = [
            NodeSet::from_indices(n, [f.source.idx()]),
            NodeSet::from_indices(n, [0, 1, 2, 3]),
        ];
        // Shared by both sets: each key against its level and packed bits.
        let mut by_packed: HashMap<(usize, Vec<u64>), u64> = HashMap::new();
        let mut packed_of: HashMap<u64, (usize, Vec<u64>)> = HashMap::new();
        let mut keys_of_set: Vec<HashSet<u64>> = Vec::new();
        for informed in &sets {
            folder.prepare(&f.topo, informed);
            let mut keys = HashSet::new();
            for li in 0..folder.levels.len() {
                let mut by_windows: HashMap<Vec<u64>, u64> = HashMap::new();
                let mut by_key: HashMap<u64, Vec<u64>> = HashMap::new();
                for phase in 0..wake.period() {
                    let mut windows = Vec::new();
                    for u in folder.relevant.iter() {
                        folder
                            .table
                            .window(u, phase, folder.levels[li], &mut windows);
                    }
                    let key = folder.key_at(li, phase, true).expect("insert yields a key");
                    let sig = (li, folder.packed.clone());
                    assert_eq!(folder.key_at(li, phase, false), Some(key));
                    assert_eq!(*by_windows.entry(windows.clone()).or_insert(key), key);
                    assert_eq!(*by_key.entry(key).or_insert(windows.clone()), windows);
                    assert_eq!(*by_packed.entry(sig.clone()).or_insert(key), key);
                    assert_eq!(*packed_of.entry(key).or_insert(sig.clone()), sig);
                    keys.insert(key);
                }
            }
            keys_of_set.push(keys);
        }
        // At rate 50 most 8-slot windows are asleep: the all-zero word is
        // one class for both sets.
        assert!(keys_of_set[0]
            .intersection(&keys_of_set[1])
            .next()
            .is_some());
        assert_eq!(folder.joints.len(), by_packed.len());
    }

    /// The duty-cycle configurations the folding tests sweep.
    fn duty_wake(n: usize, rate: u32, seed: u64) -> WindowedRandom {
        WindowedRandom::with_windows(n, rate, seed, 8)
    }

    #[test]
    fn phase_folding_preserves_results_on_fixtures() {
        for rate in [2u32, 5, 10, 50] {
            for seed in 0..3u64 {
                let (topo, src) = deploy::SyntheticDeployment::paper(60).sample(seed);
                let wake = duty_wake(topo.len(), rate, seed ^ 0xd00d);
                let folded = SearchConfig::default();
                let unfolded = SearchConfig {
                    phase_fold: false,
                    ..SearchConfig::default()
                };
                let a = solve_gopt(&topo, src, &wake, &folded);
                let b = solve_gopt(&topo, src, &wake, &unfolded);
                assert_eq!(
                    (a.latency, a.exact),
                    (b.latency, b.exact),
                    "rate {rate} seed {seed}: folding changed the G-OPT result"
                );
                a.schedule.verify(&topo, &wake).unwrap();
                assert!(
                    a.stats.memo_entries <= b.stats.memo_entries,
                    "rate {rate} seed {seed}: folding grew the memo"
                );
                if rate >= 5 {
                    assert!(a.stats.phase_classes > 0, "folder never engaged");
                }
            }
        }
    }

    #[test]
    fn root_bound_certifies_a_truncated_beam() {
        // A beam of two sets per state truncates on every sizable state,
        // yet a result that meets the hop bound is optimal.
        let (topo, src) = deploy::SyntheticDeployment::paper(60).sample(4);
        let cfg = SearchConfig {
            branch_cap: 2,
            ..SearchConfig::default()
        };
        let out = solve_opt(&topo, src, &AlwaysAwake, &cfg);
        out.schedule.verify(&topo, &AlwaysAwake).unwrap();
        assert!(out.stats.truncated_enumerations > 0);
        let ecc = crate::bounds::source_eccentricity(&topo, src) as u64;
        assert_eq!(out.latency, ecc);
        assert!(out.exact);
    }

    #[test]
    fn lazy_completion_proves_a_beam_result_above_the_root_bound() {
        // Paper-grid's 100-node deployment 1: the beam finds 8 slots
        // against a hop bound of 7, and complete enumeration proves 8.
        let seed = 0x5EED_2012 ^ (100 << 16) ^ 1;
        let (topo, src) = deploy::SyntheticDeployment::paper(100).sample(seed);
        let ecc = crate::bounds::source_eccentricity(&topo, src) as u64;
        let out = solve_opt(&topo, src, &AlwaysAwake, &SearchConfig::default());
        out.schedule.verify(&topo, &AlwaysAwake).unwrap();
        assert_eq!((ecc, out.latency, out.exact), (7, 8, true));
        // The beam truncated, so only the complete pass can have proved it;
        // that pass gives up as soon as it truncates.
        assert!(out.stats.truncated_enumerations > 0);
        assert!(!out.stats.state_cap_hit);
        // With half the states, the beam or the complete pass hits the
        // state cap, and nothing is proved.
        let starved = solve_opt(
            &topo,
            src,
            &AlwaysAwake,
            &SearchConfig {
                max_states: out.stats.states / 2,
                ..SearchConfig::default()
            },
        );
        assert!(!starved.exact && starved.latency >= 8);
    }

    #[test]
    fn multichannel_search_dissolves_conflicts() {
        use wsn_phy::{MultiChannel, PhyModelSpec, ProtocolModel};
        let mut extra_channels_used = false;
        for seed in 0..3u64 {
            let (topo, src) = deploy::SyntheticDeployment::paper(60).sample(seed);
            let cfg = SearchConfig::default();
            let mut state = BroadcastState::new();
            let single =
                solve_opt_model(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg, &mut state);
            let ecc = crate::bounds::source_eccentricity(&topo, src) as u64;
            for k in [2u32, 4] {
                let model = MultiChannel::new(ProtocolModel, k);
                let out = solve_opt_model(&topo, src, &AlwaysAwake, &model, &cfg, &mut state);
                out.schedule
                    .verify_with_model(&topo, &AlwaysAwake, &model)
                    .unwrap();
                // Packing only ever adds per-slot coverage, so when both
                // searches are exact the K-channel optimum cannot lose to
                // the single-channel one (every single-channel branch seed
                // exists in the K-channel tree with ⊇ coverage).
                if single.exact && out.exact {
                    assert!(
                        out.latency <= single.latency,
                        "seed {seed}: K={k} latency {} above single-channel {}",
                        out.latency,
                        single.latency
                    );
                }
                // The eccentricity (hop radius) is a hard floor no channel
                // count can beat.
                assert!(out.latency >= ecc, "seed {seed}: under the hop floor");
                extra_channels_used |= out
                    .schedule
                    .entries
                    .iter()
                    .any(|e| e.channels.iter().any(|&c| c > 0));
            }
            // And the spec round-trips through the same model.
            let spec = PhyModelSpec::protocol().with_channels(4);
            let m = spec.build(&topo);
            let out = solve_opt_model(&topo, src, &AlwaysAwake, &m, &cfg, &mut state);
            out.schedule
                .verify_with_model(&topo, &AlwaysAwake, &m)
                .unwrap();
        }
        assert!(
            extra_channels_used,
            "no slot on any seed ever packed a second channel"
        );
    }

    #[test]
    fn sinr_search_verifies_under_its_model() {
        use wsn_phy::{SinrModel, SinrParams};
        for seed in 0..2u64 {
            let (topo, src) = deploy::SyntheticDeployment::paper(60).sample(seed);
            let model = SinrModel::new(SinrParams::calibrated(topo.radius(), 3.0, 1.5), &topo);
            let cfg = SearchConfig::default();
            let mut state = BroadcastState::new();
            let opt = solve_opt_model(&topo, src, &AlwaysAwake, &model, &cfg, &mut state);
            opt.schedule
                .verify_with_model(&topo, &AlwaysAwake, &model)
                .unwrap();
            let gopt = solve_gopt_model(&topo, src, &AlwaysAwake, &model, &cfg, &mut state);
            gopt.schedule
                .verify_with_model(&topo, &AlwaysAwake, &model)
                .unwrap();
            assert!(
                opt.latency <= gopt.latency,
                "seed {seed}: SINR OPT above G-OPT"
            );
        }
    }
}
