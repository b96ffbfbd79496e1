//! Warm-start schedule cache: remember the best schedule per
//! `(topology token, model fingerprint, source)` and feed it back to the
//! legalizer as hints on the next solve of the same instance. Pass one to
//! [`Portfolio::solve`](crate::Portfolio::solve).
//!
//! The anytime driver's cold start pays a full greedy construction plus
//! the whole climb back to the incumbent; a churn re-run or a repeated
//! solve of a held topology (a serving shard, a drift re-plan) pays it
//! again for an answer it already had. A cache hit
//! skips the climb: the previous incumbent goes in as the *first*
//! legalization's hints, so the chain starts at (not near) the old
//! incumbent for the price of one legalizer replay — well under 10 % of a
//! cold run's wall time on the bench scales.
//!
//! Keying on [`Topology::token`] (process-unique per construction) makes
//! hits conservative by design: a freshly sampled topology can never
//! collide with a cached one, only a *held* topology re-solved under the
//! same model and source hits. The wake schedule is deliberately absent
//! from the key — the legalizer silently skips hinted senders that are
//! asleep or stale, so a hint recorded under a different duty-cycle
//! regime degrades gracefully instead of corrupting anything.

use mlbs_core::Schedule;
use std::collections::HashMap;
use wsn_phy::ConflictModel;
use wsn_topology::{NodeId, Topology};

/// Best-so-far schedules keyed on `(topology token, model fingerprint,
/// source)`. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct ScheduleCache {
    map: HashMap<(u64, u64, u32), Schedule>,
    hits: u64,
    misses: u64,
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> ScheduleCache {
        ScheduleCache::default()
    }

    /// The cached incumbent for `(topo, model, source)`, if any. Counts a
    /// hit or a miss.
    pub fn lookup<M: ConflictModel>(
        &mut self,
        topo: &Topology,
        model: &M,
        source: NodeId,
    ) -> Option<Schedule> {
        let key = (topo.token(), model.fingerprint(), source.0);
        match self.map.get(&key) {
            Some(s) => {
                self.hits += 1;
                wsn_obs::counter_add("cache.hits", 1);
                // Warm-start depth: the latency the chain gets to start
                // from instead of a cold greedy seed.
                wsn_obs::observe_us("cache.warm_start_depth_slots", s.latency());
                Some(s.clone())
            }
            None => {
                self.misses += 1;
                wsn_obs::counter_add("cache.misses", 1);
                None
            }
        }
    }

    /// Records `schedule` for `(topo, model, source)`, keeping whichever
    /// of the stored and offered schedules has the lower latency.
    pub fn observe<M: ConflictModel>(
        &mut self,
        topo: &Topology,
        model: &M,
        source: NodeId,
        schedule: &Schedule,
    ) {
        let key = (topo.token(), model.fingerprint(), source.0);
        match self.map.get_mut(&key) {
            Some(held) => {
                if schedule.latency() < held.latency() {
                    *held = schedule.clone();
                }
            }
            None => {
                self.map.insert(key, schedule.clone());
            }
        }
        wsn_obs::gauge_set("cache.entries", self.map.len() as i64);
    }

    /// Number of cached schedules.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups that found a schedule.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every cached schedule and resets the counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.hits = 0;
        self.misses = 0;
    }
}
