//! Parallel portfolio anytime search: N independently-seeded
//! tabu/PARTIALCOL chains racing on the same instance.
//!
//! Metaheuristic scheduling gains most of its quality from restart
//! diversity, and restart diversity is free across cores: each worker runs
//! the full serial chain ([`run_chain`]) under its own salted seed, so the
//! portfolio explores N basins for the wall-clock price of one. Two
//! regimes, split by [`Budget`]:
//!
//! * **Wall-clock budgets** — workers exchange incumbents through a
//!   lock-light [`SharedBest`]: an atomic latency bound gates the fast
//!   path (no lock unless an improvement is plausible) in front of a
//!   mutex-guarded elite schedule. Chains adopt a better elite between
//!   passes, and randomized restarts are *biased away* from the elite's
//!   early-sender signature so siblings do not pile into the incumbent's
//!   basin.
//! * **Iteration budgets** — workers share nothing: every chain spends
//!   the full deterministic budget, and the reduction picks the best
//!   outcome in fixed worker order. The result is bit-reproducible at any
//!   fixed thread count, and worker 0 runs the unsalted seed, so the
//!   portfolio provably never returns a worse latency than the serial
//!   driver on the same config.
//!
//! Threading is `std::thread::scope` only — same discipline as
//! `wsn-sim`'s sweep pool; no work-stealing runtime.

use mlbs_core::Schedule;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use wsn_bitset::NodeSet;
use wsn_dutycycle::{Slot, WakeSchedule};
use wsn_phy::ConflictModel;
use wsn_topology::{NodeId, Topology};

use crate::driver::{run_chain, AnytimeConfig, AnytimeOutcome, Budget, ChainCtx};
use crate::ScheduleCache;

/// Lock-light incumbent exchange between portfolio chains: a relaxed
/// atomic latency bound in front of a mutex-guarded elite schedule. The
/// bound makes the overwhelmingly common case — "nothing new" — a single
/// atomic load; the mutex is touched only when an improvement is at least
/// plausible.
pub(crate) struct SharedBest {
    /// Latency of the elite ([`u64::MAX`] while empty). Monotone
    /// non-increasing; always ≤ the elite's actual latency when read
    /// before locking, so a stale read can only cause a harmless extra
    /// lock or a skipped adoption, never a wrong adoption.
    bound: AtomicU64,
    elite: Mutex<Option<Elite>>,
}

struct Elite {
    schedule: Schedule,
    /// Early-sender signature: nodes transmitting in the first half of the
    /// occupied window. Restart bias demotes these so sibling chains build
    /// structurally different schedules.
    signature: NodeSet,
}

impl SharedBest {
    pub(crate) fn new() -> SharedBest {
        SharedBest {
            bound: AtomicU64::new(u64::MAX),
            elite: Mutex::new(None),
        }
    }

    /// Publishes `schedule` as the elite if it beats the current one.
    pub(crate) fn offer(&self, schedule: &Schedule, universe: usize) {
        let latency = schedule.latency();
        if latency >= self.bound.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = self.elite.lock().expect("shared best poisoned");
        let better = guard
            .as_ref()
            .is_none_or(|e| latency < e.schedule.latency());
        if better {
            self.bound.fetch_min(latency, Ordering::Relaxed);
            *guard = Some(Elite {
                schedule: schedule.clone(),
                signature: signature_of(schedule, universe),
            });
        }
    }

    /// Clones the elite schedule when it is strictly better than
    /// `current`; the atomic bound screens out the no-improvement case
    /// without locking.
    pub(crate) fn adopt_if_better(&self, current: Slot) -> Option<Schedule> {
        if self.bound.load(Ordering::Relaxed) >= current {
            return None;
        }
        let guard = self.elite.lock().expect("shared best poisoned");
        guard
            .as_ref()
            .filter(|e| e.schedule.latency() < current)
            .map(|e| e.schedule.clone())
    }

    /// Clones the elite's early-sender signature for restart biasing.
    pub(crate) fn elite_signature(&self) -> Option<NodeSet> {
        let guard = self.elite.lock().expect("shared best poisoned");
        guard.as_ref().map(|e| e.signature.clone())
    }
}

/// Nodes transmitting in the first half of the schedule's occupied window.
fn signature_of(schedule: &Schedule, universe: usize) -> NodeSet {
    let mut sig = NodeSet::new(universe);
    let end = schedule.completion_slot();
    let mid = schedule.start + (end - schedule.start) / 2;
    for entry in &schedule.entries {
        if entry.slot <= mid {
            for &u in &entry.senders {
                sig.insert(u.idx());
            }
        }
    }
    sig
}

/// Parallel portfolio anytime scheduler (see the module docs).
///
/// `threads == 1` is bit-identical to [`solve_anytime`](crate::solve_anytime)
/// on the same config — the portfolio collapses to one standalone chain —
/// so promoting call sites to `Portfolio` is behavior-preserving until
/// they actually raise the thread count.
#[derive(Clone, Debug)]
pub struct Portfolio {
    config: AnytimeConfig,
    threads: usize,
}

impl Portfolio {
    /// A portfolio of `threads` chains under the default config.
    pub fn new(threads: usize) -> Portfolio {
        Portfolio::with_config(AnytimeConfig::default(), threads)
    }

    /// A portfolio of `threads` chains under `config` (worker 0 runs the
    /// config's seed verbatim; workers 1.. run salted variants).
    pub fn with_config(config: AnytimeConfig, threads: usize) -> Portfolio {
        Portfolio {
            config,
            threads: threads.max(1),
        }
    }

    /// Worker count.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The base chain config.
    #[inline]
    pub fn config(&self) -> &AnytimeConfig {
        &self.config
    }

    /// Runs the portfolio. With a `cache`, a hit warm-starts every chain's
    /// first legalization from the previous incumbent for this instance,
    /// and the winning schedule is folded back into the cache either way.
    /// The returned outcome is the best chain's, with
    /// `moves`/`passes`/`restarts` summed across all chains so billed work
    /// stays comparable to the serial driver's accounting.
    pub fn solve<S, M>(
        &self,
        topo: &Topology,
        source: NodeId,
        wake: &S,
        model: &M,
        cache: Option<&mut ScheduleCache>,
    ) -> AnytimeOutcome
    where
        S: WakeSchedule + Sync,
        M: ConflictModel,
    {
        match cache {
            None => self.race(topo, source, wake, model, None),
            Some(cache) => {
                let warm = cache.lookup(topo, model, source);
                let out = self.race(topo, source, wake, model, warm.as_ref());
                cache.observe(topo, model, source, &out.schedule);
                out
            }
        }
    }

    /// Races the chains, each warm-started from `warm` when given.
    fn race<S, M>(
        &self,
        topo: &Topology,
        source: NodeId,
        wake: &S,
        model: &M,
        warm: Option<&Schedule>,
    ) -> AnytimeOutcome
    where
        S: WakeSchedule + Sync,
        M: ConflictModel,
    {
        let mut solve_span = wsn_obs::span("portfolio.solve");
        wsn_obs::counter_add("portfolio.solves", 1);
        wsn_obs::counter_add("portfolio.chains", self.threads as u64);
        wsn_obs::gauge_set("portfolio.threads", self.threads as i64);
        if warm.is_some() {
            wsn_obs::counter_add("portfolio.warm_starts", 1);
        }
        if self.threads == 1 {
            let out = run_chain(
                topo,
                source,
                wake,
                model,
                &self.config,
                ChainCtx {
                    shared: None,
                    warm,
                    dead: None,
                },
            );
            solve_span.set_value(out.latency as i64);
            return out;
        }
        // Incumbent exchange only under wall-clock budgets: iteration
        // budgets promise bit-reproducibility, and cross-thread adoption
        // order is inherently racy.
        let share = matches!(self.config.budget, Budget::WallClockMs(_));
        let shared = SharedBest::new();
        let mut outcomes: Vec<AnytimeOutcome> = Vec::with_capacity(self.threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|w| {
                    let cfg = self.worker_config(w);
                    let shared = share.then_some(&shared);
                    scope.spawn(move || {
                        run_chain(
                            topo,
                            source,
                            wake,
                            model,
                            &cfg,
                            ChainCtx {
                                shared,
                                warm,
                                dead: None,
                            },
                        )
                    })
                })
                .collect();
            for h in handles {
                outcomes.push(h.join().expect("portfolio worker panicked"));
            }
        });
        // Deterministic round-robin reduction: fixed worker order, first
        // minimum wins. With iteration budgets every input is itself
        // deterministic, so the portfolio result is bit-reproducible at a
        // fixed thread count.
        let winner = outcomes
            .iter()
            .enumerate()
            .min_by_key(|(i, o)| (o.latency, *i))
            .map(|(i, _)| i)
            .expect("at least one worker");
        let moves = outcomes.iter().map(|o| o.moves).sum();
        let passes = outcomes.iter().map(|o| o.passes).sum();
        let restarts = outcomes.iter().map(|o| o.restarts).sum();
        let mut out = outcomes.swap_remove(winner);
        out.moves = moves;
        out.passes = passes;
        out.restarts = restarts;
        solve_span.set_value(out.latency as i64);
        out
    }

    /// Worker 0 keeps the configured seed (so the serial chain is always
    /// in the portfolio); workers 1.. get golden-ratio-salted seeds for
    /// independent diversification streams.
    fn worker_config(&self, worker: usize) -> AnytimeConfig {
        let mut cfg = self.config.clone();
        if worker > 0 {
            cfg.seed ^= (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        cfg
    }
}
