//! Per-phase wake-pattern signatures for phase-folded search memoization.
//!
//! The duty-cycle searches memoize on `(W, t mod P)`; with `WindowedRandom`
//! the period `P = r × windows` multiplies the state space by thousands at
//! high cycle rates. But the remaining broadcast from a state only depends
//! on *which relevant nodes wake in the slots it can still use* — two
//! phases whose wake patterns agree over those nodes and that horizon are
//! interchangeable. [`WakePatternTable`] materializes any
//! [`WakeSchedule`]'s full period as per-node bit rows (doubled so windows
//! never wrap) and serves the window extraction that the folding tables of
//! `mlbs-core::search` are built from.

use crate::{Slot, WakeSchedule};

/// A wake schedule rendered to per-node bit rows over two periods.
///
/// Row `u` holds bit `t` set iff `can_send(u, t)` for `t ∈ [0, 2P)`; the
/// doubling lets [`WakePatternTable::window`] extract any
/// `[phase, phase + horizon)` window with `phase < P` and `horizon ≤ P` as
/// straight word shifts, no wraparound.
///
/// # Examples
///
/// ```
/// use wsn_dutycycle::{WakePatternTable, WakeSchedule, WindowedRandom};
///
/// let wake = WindowedRandom::with_windows(4, 5, 9, 8);
/// let table = WakePatternTable::build(&wake, 4);
/// assert_eq!(table.period(), 40);
/// let mut w = Vec::new();
/// table.window(2, 7, 10, &mut w);
/// for h in 0..10u64 {
///     assert_eq!(w[0] >> h & 1 == 1, wake.can_send(2, 7 + h));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct WakePatternTable {
    period: Slot,
    /// Words per node row (`⌈2P / 64⌉`).
    stride: usize,
    /// Node-major doubled wake bits.
    bits: Vec<u64>,
}

impl WakePatternTable {
    /// Renders `wake` for nodes `0..n`.
    ///
    /// Walks each node's sending slots via [`WakeSchedule::next_send`]:
    /// one call per sending slot in two periods, so `O(n · sends)` calls,
    /// not `O(n · P)` slot tests. On [`crate::WindowedRandom`] a node takes
    /// `2 × windows` calls of two 64-bit divisions each.
    pub fn build<S: WakeSchedule>(wake: &S, n: usize) -> Self {
        let period = wake.period();
        assert!(period > 0, "wake schedule must have a positive period");
        let doubled = 2 * period as usize;
        let stride = doubled.div_ceil(64);
        let mut bits = vec![0u64; stride * n];
        for (u, row) in bits.chunks_mut(stride).enumerate() {
            let mut t = wake.next_send(u, 0);
            while t < 2 * period {
                row[(t / 64) as usize] |= 1u64 << (t % 64);
                t = wake.next_send(u, t + 1);
            }
        }
        WakePatternTable {
            period,
            stride,
            bits,
        }
    }

    /// The schedule's period `P`.
    #[inline]
    pub fn period(&self) -> Slot {
        self.period
    }

    /// Number of node rows.
    pub fn len(&self) -> usize {
        self.bits.len() / self.stride.max(1)
    }

    /// `true` when the table covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Appends `⌈horizon / 64⌉` words holding node `u`'s wake bits for the
    /// slots `[phase, phase + horizon)` to `out` (bit `h` of the packed
    /// result = wake at `phase + h`; unused high bits of the last word are
    /// zero, so equal windows compare equal word-for-word).
    ///
    /// # Panics
    ///
    /// Panics when `phase ≥ P` or `horizon > P` (debug builds).
    pub fn window(&self, u: usize, phase: Slot, horizon: u32, out: &mut Vec<u64>) {
        debug_assert!(
            phase < self.period,
            "phase {phase} ≥ period {}",
            self.period
        );
        debug_assert!(
            horizon as u64 <= self.period,
            "horizon {horizon} exceeds period {}",
            self.period
        );
        let row = &self.bits[u * self.stride..(u + 1) * self.stride];
        let (base_word, off) = ((phase / 64) as usize, (phase % 64) as u32);
        let n_words = (horizon as usize).div_ceil(64);
        for k in 0..n_words {
            let lo = row[base_word + k] >> off;
            let hi = if off == 0 {
                0
            } else {
                row.get(base_word + k + 1).copied().unwrap_or(0) << (64 - off)
            };
            let mut w = lo | hi;
            let used = (horizon as usize - k * 64).min(64);
            if used < 64 {
                w &= (1u64 << used) - 1;
            }
            out.push(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlwaysAwake, ExplicitSchedule, WindowedRandom};

    fn assert_window_matches<S: WakeSchedule>(wake: &S, table: &WakePatternTable, n: usize) {
        let p = table.period();
        let mut buf = Vec::new();
        for u in 0..n {
            for phase in [0, 1, p / 3, p - 1] {
                for horizon in [1u32, 7, 64, 65, p.min(130) as u32] {
                    if horizon as u64 > p {
                        continue;
                    }
                    buf.clear();
                    table.window(u, phase, horizon, &mut buf);
                    assert_eq!(buf.len(), (horizon as usize).div_ceil(64));
                    for h in 0..horizon as u64 {
                        let bit = buf[(h / 64) as usize] >> (h % 64) & 1 == 1;
                        assert_eq!(
                            bit,
                            wake.can_send(u, phase + h),
                            "node {u} phase {phase} offset {h}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn windows_match_windowed_random() {
        let wake = WindowedRandom::with_windows(6, 7, 123, 10);
        let table = WakePatternTable::build(&wake, 6);
        assert_eq!(table.period(), 70);
        assert_eq!(table.len(), 6);
        assert_window_matches(&wake, &table, 6);
        // Paper-grid's schedule: rate 10 over 64 windows, so each doubled
        // row spans 1 280 slots in 20 words.
        let wake = WindowedRandom::with_windows(6, 10, 2012, 64);
        let table = WakePatternTable::build(&wake, 6);
        assert_eq!((table.period(), table.stride), (640, 20));
        assert_window_matches(&wake, &table, 6);
    }

    #[test]
    fn windows_match_explicit_schedule() {
        let wake = ExplicitSchedule::new(vec![vec![2], vec![4, 13], vec![4], vec![9], vec![9]], 20);
        let table = WakePatternTable::build(&wake, 5);
        assert_eq!(table.period(), 20);
        assert_window_matches(&wake, &table, 5);
    }

    #[test]
    fn always_awake_is_all_ones() {
        let table = WakePatternTable::build(&AlwaysAwake, 3);
        assert_eq!(table.period(), 1);
        let mut buf = Vec::new();
        table.window(1, 0, 1, &mut buf);
        assert_eq!(buf, vec![1]);
    }

    #[test]
    fn equal_windows_compare_equal_across_phases() {
        // Two phases within the same silent stretch of a sparse schedule
        // must produce identical (zero) windows — the folding premise.
        let wake = ExplicitSchedule::new(vec![vec![0], vec![18]], 20);
        let table = WakePatternTable::build(&wake, 2);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        table.window(0, 3, 8, &mut a);
        table.window(0, 5, 8, &mut b);
        assert_eq!(a, b, "both windows silent");
        a.clear();
        b.clear();
        table.window(1, 10, 10, &mut a);
        table.window(1, 12, 10, &mut b);
        assert_ne!(a, b, "the slot-18 wake sits at different offsets");
    }
}
