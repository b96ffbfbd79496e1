//! Offline compatibility shim for the subset of the `rand` 0.9 API this
//! workspace uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and
//! [`Rng::random_range`] over integer and float ranges.
//!
//! The build environment for this repository has no registry access, so the
//! workspace vendors the handful of external APIs it consumes as path
//! dependencies under `compat/`. The generator here is xoshiro256++ seeded
//! via SplitMix64 — statistically solid for deployment sampling and fully
//! deterministic per seed, which is all the experiment harness requires.
//! It does *not* promise the same value stream as upstream `StdRng`.

use std::ops::{Range, RangeInclusive};

/// Low-level uniform word source.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// RNGs constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Creates an RNG whose entire stream is determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Ranges a uniform value can be drawn from.
pub trait SampleRange<T> {
    /// Draws one value from `rng`.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform integer in `[0, span)` by rejection sampling (no modulo bias).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        // The same rejection zone as below (`u64::MAX % span` is
        // `span − 1`, so the zone is `2⁶⁴ − span`), with a mask for the
        // modulo: the stream stays bit-identical, without a division.
        let zone = span.wrapping_neg();
        loop {
            let v = rng.next_u64();
            if v < zone {
                return v & (span - 1);
            }
        }
    }
    let zone = u64::MAX - (u64::MAX % span);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

/// A uniform f64 in `[0, 1)` with 53 bits of precision.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let v = self.start + (self.end - self.start) * unit_f64(rng);
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + (hi - lo) * unit_f64(rng)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (the shim's stand-in for
    /// upstream `StdRng`; same trait surface, different value stream).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion, the canonical xoshiro seeding routine.
            let mut x = state;
            let mut next = move || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{uniform_below, Rng, RngCore, SeedableRng};

    /// Replays a fixed word list, then counts up from zero.
    struct Words(Vec<u64>, u64);

    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            if self.0.is_empty() {
                self.1 += 1;
                return self.1 - 1;
            }
            self.0.remove(0)
        }
    }

    /// The division-based draw every span used before the power-of-two
    /// path existed.
    fn by_division(rng: &mut impl RngCore, span: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = rng.next_u64();
            if v < zone {
                return v % span;
            }
        }
    }

    #[test]
    fn power_of_two_spans_keep_the_division_stream() {
        for span in [1u64, 2, 4, 8, 1 << 20, 1 << 63] {
            // Words at both edges of the rejection zone, then a seeded run.
            let edge = span.wrapping_neg();
            let words = vec![
                u64::MAX,
                edge,
                edge.wrapping_sub(1),
                0,
                7,
                edge.wrapping_add(1),
                1,
            ];
            let (mut a, mut b) = (Words(words.clone(), 0), Words(words, 0));
            for _ in 0..5 {
                assert_eq!(uniform_below(&mut a, span), by_division(&mut b, span));
            }
            assert_eq!(a.0, b.0, "span {span}: same words consumed");
            let (mut a, mut b) = (StdRng::seed_from_u64(span), StdRng::seed_from_u64(span));
            for _ in 0..1_000 {
                assert_eq!(uniform_below(&mut a, span), by_division(&mut b, span));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u32> = (0..16).map(|_| a.random_range(0..1000u32)).collect();
        let ys: Vec<u32> = (0..16).map(|_| b.random_range(0..1000u32)).collect();
        let zs: Vec<u32> = (0..16).map(|_| c.random_range(0..1000u32)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let i: usize = rng.random_range(3..17);
            assert!((3..17).contains(&i));
            let f: f64 = rng.random_range(-2.5..=2.5);
            assert!((-2.5..=2.5).contains(&f));
            let g: f64 = rng.random_range(0.0..1.0);
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn covers_the_whole_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.random_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
