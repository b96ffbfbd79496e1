//! Duty-cycle wake-up schedules and cycle-waiting-time (CWT) computation.
//!
//! §III of the paper: each node periodically turns its *sending* channel on
//! according to "a pseudo-random sequence in the uniform distribution with a
//! preset seed"; receiving channels are always on. With `T(u)` the set of
//! sending slots of `u` and cycle rate `r = |T| / |T(u)|`, a node is on
//! average active once every `r` slots but not at a fixed interval. Because
//! seeds are exchanged during beaconing, every node can *predict* its
//! neighbors' wake-ups; the wait until a neighbor's next sending slot is
//! the cycle waiting time (CWT) `t(u, v)`.
//!
//! The [`WakeSchedule`] trait abstracts the timing regime so the schedulers
//! in `mlbs-core` have a single code path:
//!
//! * [`AlwaysAwake`] — the round-based synchronous system (`r = 1`);
//! * [`WindowedRandom`] — the paper's duty-cycle model: one uniformly
//!   pseudo-random sending slot per length-`r` window, periodic over a
//!   configurable number of windows so searches can memoize on
//!   `slot mod period`;
//! * [`ExplicitSchedule`] — hand-written wake lists for the paper's worked
//!   examples (Table IV).
//!
//! [`WakePatternTable`] renders any schedule's period to per-node bit rows
//! so the phase-folded search memoization in `mlbs-core` can compare wake
//! windows across phases word-parallel.
//!
//! Node identity is a plain `usize` index here; this crate is independent
//! of topology.

mod explicit;
mod pattern;
mod windowed;

pub use explicit::ExplicitSchedule;
pub use pattern::WakePatternTable;
pub use windowed::WindowedRandom;

/// A time slot. Slot 0 is the first slot of the system lifetime; the paper
/// starts its examples at `t_s = 1` or `2`, which callers express directly.
pub type Slot = u64;

/// A node's sending-channel schedule, shared by all timing regimes.
///
/// Implementations are plain data read through `&self`, so the trait
/// requires [`Sync`]: a search may read one schedule from several threads
/// at once (the anytime tier legalizes restarts on a helper thread).
pub trait WakeSchedule: Sync {
    /// `true` when node `u`'s sending channel is on in `slot`
    /// (`slot ∈ T(u)`).
    fn can_send(&self, u: usize, slot: Slot) -> bool;

    /// The first slot `≥ from` in which `u` can send.
    ///
    /// Must satisfy `can_send(u, next_send(u, from))` and return a value
    /// within `from + period()` (every period contains at least one sending
    /// slot per node).
    fn next_send(&self, u: usize, from: Slot) -> Slot;

    /// Period after which the whole schedule repeats. Search memoization
    /// keys on `slot mod period`.
    fn period(&self) -> Slot;

    /// Average cycle rate `r = |T| / |T(u)|` (1 for the synchronous system).
    fn cycle_rate(&self) -> f64;

    /// CWT after a reception: if a message is delivered to `v` in `slot`,
    /// the number of slots until `v` can relay it (`next_send(v, slot+1) −
    /// slot`). Always ≥ 1: a node cannot receive and forward in one slot.
    fn cwt_after(&self, v: usize, slot: Slot) -> Slot {
        self.next_send(v, slot + 1) - slot
    }

    /// Expected CWT across an edge `u → v`: the mean over one period of the
    /// wait `v` imposes when `u` hands it a message at each of `u`'s sending
    /// slots. This is the scalar edge weight the proactive E-model
    /// construction uses for Eq. (11).
    fn expected_cwt(&self, u: usize, v: usize) -> f64 {
        let period = self.period();
        let mut total = 0u64;
        let mut count = 0u64;
        let mut t = self.next_send(u, 0);
        while t < period {
            total += self.cwt_after(v, t);
            count += 1;
            t = self.next_send(u, t + 1);
        }
        if count == 0 {
            // Defensive: a WakeSchedule must give every node a slot per
            // period, so this indicates a broken implementation.
            panic!("node {u} has no sending slot within one period");
        }
        total as f64 / count as f64
    }

    /// Worst-case CWT across an edge `u → v` over one period — the `k` of
    /// the 17-approximation bound `17·k·d` ("maximum wait slots required
    /// between any pair of neighboring nodes").
    fn max_cwt(&self, u: usize, v: usize) -> Slot {
        let period = self.period();
        let mut worst = 0;
        let mut t = self.next_send(u, 0);
        while t < period {
            worst = worst.max(self.cwt_after(v, t));
            t = self.next_send(u, t + 1);
        }
        worst
    }
}

/// The round-based synchronous system: every node can send in every round.
#[derive(Clone, Debug, Default)]
pub struct AlwaysAwake;

impl WakeSchedule for AlwaysAwake {
    #[inline]
    fn can_send(&self, _u: usize, _slot: Slot) -> bool {
        true
    }

    #[inline]
    fn next_send(&self, _u: usize, from: Slot) -> Slot {
        from
    }

    #[inline]
    fn period(&self) -> Slot {
        1
    }

    #[inline]
    fn cycle_rate(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_awake_basics() {
        let s = AlwaysAwake;
        assert!(s.can_send(0, 0));
        assert!(s.can_send(7, 123_456));
        assert_eq!(s.next_send(3, 42), 42);
        assert_eq!(s.period(), 1);
        assert_eq!(s.cycle_rate(), 1.0);
    }

    #[test]
    fn always_awake_cwt_is_one() {
        // Synchronous relaying costs exactly one round per hop, which makes
        // Eq. (11) degenerate to Eq. (9).
        let s = AlwaysAwake;
        assert_eq!(s.cwt_after(0, 10), 1);
        assert_eq!(s.expected_cwt(1, 2), 1.0);
        assert_eq!(s.max_cwt(1, 2), 1);
    }
}
