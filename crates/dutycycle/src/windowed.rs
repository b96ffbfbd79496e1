//! The paper's pseudo-random duty-cycle schedule.

use crate::{Slot, WakeSchedule};

/// One uniformly pseudo-random sending slot per length-`r` window.
///
/// This realizes §III's model: the schedule has exactly one active sending
/// slot in every window of `r` consecutive slots, drawn uniformly per
/// window from a per-node seed, so the average gap is `r` but consecutive
/// wake-ups are not equally spaced (worst-case gap just under `2r`).
/// The pattern repeats after `windows` windows (`period = r × windows`;
/// at `r = 1` every slot is a sending slot and the period is 1), which
/// keeps solver memo keys finite; `windows` defaults to 64 so the
/// repetition is far longer than any broadcast the evaluation runs.
#[derive(Clone, Debug)]
pub struct WindowedRandom {
    /// Cycle rate `r` in slots.
    rate: u32,
    /// Number of windows before the pattern repeats.
    windows: u32,
    /// `offsets[u * windows + w]` = active slot offset of node `u` in
    /// window `w`.
    offsets: Vec<u32>,
}

/// SplitMix64 — the tiny deterministic PRNG used to derive per-window
/// offsets from a seed; chosen for reproducibility across platforms rather
/// than statistical sophistication.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl WindowedRandom {
    /// Default number of windows per period.
    pub const DEFAULT_WINDOWS: u32 = 64;

    /// Builds a schedule for `n` nodes with cycle rate `rate`, deriving all
    /// per-node sequences from `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is zero.
    pub fn new(n: usize, rate: u32, seed: u64) -> Self {
        Self::with_windows(n, rate, seed, Self::DEFAULT_WINDOWS)
    }

    /// As [`WindowedRandom::new`] with an explicit period length in windows.
    ///
    /// # Panics
    ///
    /// Panics when `rate` or `windows` is zero.
    pub fn with_windows(n: usize, rate: u32, seed: u64, windows: u32) -> Self {
        assert!(rate > 0, "cycle rate must be positive");
        assert!(windows > 0, "need at least one window");
        let offsets = (0..n)
            .flat_map(|u| {
                // Per-node stream: mix the node index into the seed once,
                // then derive each window's offset independently so that
                // consecutive windows are uncorrelated.
                let node_seed = splitmix64(seed ^ (u as u64).wrapping_mul(0xa24b_aed4_963e_e407));
                (0..windows).map(move |w| (splitmix64(node_seed ^ (w as u64)) % rate as u64) as u32)
            })
            .collect();
        WindowedRandom {
            rate,
            windows,
            offsets,
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.offsets.len() / self.windows as usize
    }

    /// `true` when the schedule covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Cycle rate `r`.
    pub fn rate(&self) -> u32 {
        self.rate
    }

    /// Node `u`'s active offset in each window of the period.
    fn row(&self, u: usize) -> &[u32] {
        let w = self.windows as usize;
        &self.offsets[u * w..(u + 1) * w]
    }

    /// The active slot of node `u` within window `w` (absolute slot).
    fn active_slot_in_window(&self, u: usize, w: u64) -> Slot {
        let widx = (w % self.windows as u64) as usize;
        w * self.rate as u64 + self.row(u)[widx] as u64
    }

    /// The waits `v` imposes on a message `u` hands it, one per window of
    /// the period, folded with `fold` in window order. `u` sends once per
    /// window, at offset `ou`; `v` relays at its own slot later in that
    /// window (offset `ov > ou`), or else at its slot in the next window,
    /// wrapping at the period. This is `cwt_after(v, t)` at each of `u`'s
    /// sending slots `t`, in closed form.
    ///
    /// The loop reads the next window's offset from a shifted slice and
    /// handles the last window's wrap after it, so it has no modulo and no
    /// branch, and it vectorizes.
    #[inline]
    fn fold_waits(&self, u: usize, v: usize, fold: impl Fn(Slot, Slot) -> Slot) -> Slot {
        let (ru, rv) = (self.row(u), self.row(v));
        let rate = self.rate as Slot;
        let last = ru.len() - 1;
        let inner = ru[..last]
            .iter()
            .zip(&rv[..last])
            .zip(&rv[1..])
            .fold(0, |acc, ((&ou, &same), &next)| {
                fold(acc, wait(rate, ou, same, next))
            });
        fold(inner, wait(rate, ru[last], rv[last], rv[0]))
    }
}

/// The wait for a message handed over at offset `ou` of a window in which
/// the receiver's own offset is `same` and the next window's is `next`:
/// `same − ou` when `same > ou`, else `rate + next − ou`. Both selects
/// compile to branch-free code, and the arithmetic is in `Slot`, so it is
/// exact for every `u32` rate.
#[inline]
fn wait(rate: Slot, ou: u32, same: u32, next: u32) -> Slot {
    let wrapped = same <= ou;
    let relay = if wrapped { next } else { same };
    relay as Slot + rate * Slot::from(wrapped) - ou as Slot
}

impl WakeSchedule for WindowedRandom {
    fn can_send(&self, u: usize, slot: Slot) -> bool {
        let w = slot / self.rate as u64;
        self.active_slot_in_window(u, w) == slot
    }

    fn next_send(&self, u: usize, from: Slot) -> Slot {
        let mut w = from / self.rate as u64;
        loop {
            let t = self.active_slot_in_window(u, w);
            if t >= from {
                return t;
            }
            w += 1;
        }
    }

    /// `rate × windows`, except at rate 1, where every node sends in every
    /// slot and the schedule repeats after one slot, as the synchronous
    /// system does.
    fn period(&self) -> Slot {
        if self.rate == 1 {
            1
        } else {
            self.rate as u64 * self.windows as u64
        }
    }

    fn cycle_rate(&self) -> f64 {
        self.rate as f64
    }

    /// The trait default bit for bit: the same integer total over the
    /// same `windows` sends, divided once.
    fn expected_cwt(&self, u: usize, v: usize) -> f64 {
        let total = self.fold_waits(u, v, |acc, w| acc + w);
        total as f64 / self.windows as f64
    }

    fn max_cwt(&self, u: usize, v: usize) -> Slot {
        self.fold_waits(u, v, Slot::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_active_slot_per_window() {
        let s = WindowedRandom::new(5, 10, 99);
        for u in 0..5 {
            for w in 0..20u64 {
                let active: Vec<Slot> = (w * 10..(w + 1) * 10)
                    .filter(|&t| s.can_send(u, t))
                    .collect();
                assert_eq!(active.len(), 1, "node {u} window {w}");
            }
        }
    }

    #[test]
    fn next_send_is_consistent_with_can_send() {
        let s = WindowedRandom::new(4, 7, 3);
        for u in 0..4 {
            for from in 0..200u64 {
                let t = s.next_send(u, from);
                assert!(t >= from);
                assert!(s.can_send(u, t));
                // No earlier sending slot in [from, t).
                for q in from..t {
                    assert!(!s.can_send(u, q));
                }
            }
        }
    }

    #[test]
    fn schedule_is_periodic() {
        let s = WindowedRandom::with_windows(3, 5, 11, 8);
        let p = s.period();
        assert_eq!(p, 40);
        for u in 0..3 {
            for t in 0..p {
                assert_eq!(s.can_send(u, t), s.can_send(u, t + p));
                assert_eq!(s.can_send(u, t), s.can_send(u, t + 3 * p));
            }
        }
    }

    #[test]
    fn rate_one_is_synchronous() {
        let s = WindowedRandom::new(4, 1, 7);
        assert_eq!(s.period(), 1);
        for u in 0..4 {
            for t in 0..200 {
                assert!(s.can_send(u, t), "node {u} slot {t}");
            }
        }
    }

    #[test]
    fn worst_case_gap_below_two_rates() {
        let s = WindowedRandom::new(10, 10, 1234);
        for u in 0..10 {
            let mut prev = s.next_send(u, 0);
            loop {
                let next = s.next_send(u, prev + 1);
                if next >= s.period() + prev {
                    break;
                }
                assert!(next - prev < 2 * 10, "gap {} too large", next - prev);
                if next > 2 * s.period() {
                    break;
                }
                prev = next;
            }
        }
    }

    #[test]
    fn deterministic_in_seed_and_distinct_across_nodes() {
        let a = WindowedRandom::new(6, 10, 5);
        let b = WindowedRandom::new(6, 10, 5);
        let c = WindowedRandom::new(6, 10, 6);
        for u in 0..6 {
            assert_eq!(a.next_send(u, 0), b.next_send(u, 0));
        }
        // Different seeds should disagree somewhere within two windows.
        assert!(
            (0..6).any(|u| a.next_send(u, 0) != c.next_send(u, 0)
                || a.next_send(u, 10) != c.next_send(u, 10)),
            "seeds 5 and 6 produced identical schedules"
        );
        // Nodes have independent streams: not all identical.
        assert!(
            (1..6).any(|u| a.next_send(u, 0) != a.next_send(0, 0)
                || a.next_send(u, 10) != a.next_send(0, 10)),
            "all nodes share one schedule"
        );
    }

    #[test]
    fn cwt_bounds() {
        let s = WindowedRandom::new(8, 10, 77);
        for u in 0..8 {
            for v in 0..8 {
                if u == v {
                    continue;
                }
                let e = s.expected_cwt(u, v);
                assert!(e >= 1.0, "expected CWT {e} below 1");
                assert!(e < 20.0, "expected CWT {e} ≥ 2r");
                let m = s.max_cwt(u, v);
                assert!((1..20).contains(&m));
                assert!(e <= m as f64);
            }
        }
    }

    /// Forwards only the required trait methods, so `expected_cwt` and
    /// `max_cwt` run the trait defaults over `WindowedRandom`'s slots.
    struct DefaultCwt(WindowedRandom);

    impl WakeSchedule for DefaultCwt {
        fn can_send(&self, u: usize, slot: Slot) -> bool {
            self.0.can_send(u, slot)
        }

        fn next_send(&self, u: usize, from: Slot) -> Slot {
            self.0.next_send(u, from)
        }

        fn period(&self) -> Slot {
            self.0.period()
        }

        fn cycle_rate(&self) -> f64 {
            self.0.cycle_rate()
        }
    }

    #[test]
    fn closed_form_cwt_equals_trait_defaults() {
        // Wraps at the period (windows = 1, 3), degenerates at rate 1, and
        // runs the paper's rate over the default period. Rates of 2^31 and
        // above make a wrapped wait `rate + next − ou` overflow `u32`, so
        // the closed form must not narrow it.
        let n = 12;
        let wide = [(1 << 31, 2), (u32::MAX, 1), (u32::MAX, 2), (u32::MAX, 3)];
        for (rate, windows) in [(10, 64), (1, 4), (7, 3), (10, 1), (2, 9)]
            .into_iter()
            .chain(wide)
        {
            let fast = WindowedRandom::with_windows(n, rate, 0x5eed ^ rate as u64, windows);
            let slow = DefaultCwt(fast.clone());
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(
                        fast.expected_cwt(u, v).to_bits(),
                        slow.expected_cwt(u, v).to_bits(),
                        "rate {rate} windows {windows}: expected_cwt({u}, {v})"
                    );
                    assert_eq!(
                        fast.max_cwt(u, v),
                        slow.max_cwt(u, v),
                        "rate {rate} windows {windows}: max_cwt({u}, {v})"
                    );
                }
            }
        }
    }

    #[test]
    fn offsets_are_roughly_uniform() {
        // Sanity-check the PRNG: over many windows, each offset 0..r−1
        // appears with frequency not wildly off 1/r.
        let s = WindowedRandom::with_windows(1, 10, 42, 2000);
        let mut counts = [0u32; 10];
        for w in 0..2000u64 {
            let t = s.active_slot_in_window(0, w);
            counts[(t % 10) as usize] += 1;
        }
        for (o, &c) in counts.iter().enumerate() {
            assert!(
                (100..=400).contains(&c),
                "offset {o} frequency {c} far from uniform (expected ~200)"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cycle rate must be positive")]
    fn zero_rate_rejected() {
        WindowedRandom::new(1, 0, 0);
    }
}
